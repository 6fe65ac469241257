package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"chiron/internal/scenario"
	"chiron/internal/session"
)

// Server hosts sessions over HTTP/JSON. One Server owns one admission
// pool: POST /sessions reserves a backlog slot immediately (429 with
// Retry-After when full), and a started session waits for one of the
// pool's worker slots before episodes run.
type Server struct {
	pool      *session.Pool
	clock     session.Clock // nil = real time; tests inject a manual clock
	heartbeat time.Duration // default registry timeout for "registry": true

	mu       sync.Mutex
	sessions map[string]*session.Session
	order    []string // creation order, for stable listings
	nextID   int
}

func newServer(pool *session.Pool, clock session.Clock, heartbeat time.Duration) *Server {
	return &Server{
		pool:      pool,
		clock:     clock,
		heartbeat: heartbeat,
		sessions:  make(map[string]*session.Session),
	}
}

// routes builds the method+pattern mux for the session API.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("POST /sessions", s.handleCreate)
	mux.HandleFunc("GET /sessions/{id}", s.handleStatus)
	mux.HandleFunc("GET /sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /sessions/{id}/episodes", s.handleEpisodes)
	mux.HandleFunc("POST /sessions/{id}/start", s.handleLifecycle("start"))
	mux.HandleFunc("POST /sessions/{id}/pause", s.handleLifecycle("pause"))
	mux.HandleFunc("POST /sessions/{id}/resume", s.handleLifecycle("resume"))
	mux.HandleFunc("POST /sessions/{id}/stop", s.handleLifecycle("stop"))
	mux.HandleFunc("POST /sessions/{id}/nodes", s.handleRegister)
	mux.HandleFunc("POST /sessions/{id}/nodes/{node}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("DELETE /sessions/{id}/nodes/{node}", s.handleDeregister)
	return mux
}

// createRequest is the POST /sessions body: a scenario spec plus hosting
// knobs. Registry arms live-node registration with the server's default
// heartbeat timeout; Heartbeat overrides it per session ("5s" form).
type createRequest struct {
	Spec      *scenario.Spec `json:"spec"`
	Workers   int            `json:"workers,omitempty"`
	Registry  bool           `json:"registry,omitempty"`
	Heartbeat string         `json:"heartbeat,omitempty"`
}

// sessionView is a Status tagged with the session's server-assigned id.
type sessionView struct {
	ID string `json:"id"`
	session.Status
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if req.Spec == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("a scenario spec is required"))
		return
	}
	timeout := time.Duration(0)
	if req.Registry || req.Heartbeat != "" {
		timeout = s.heartbeat
		if req.Heartbeat != "" {
			d, err := time.ParseDuration(req.Heartbeat)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("heartbeat: %w", err))
				return
			}
			timeout = d
		}
	}
	sess, err := session.New(session.Config{
		Spec:             req.Spec,
		Workers:          req.Workers,
		Pool:             s.pool,
		Clock:            s.clock,
		HeartbeatTimeout: timeout,
	})
	switch {
	case errors.Is(err, session.ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.pool.RetryAfter().Seconds())))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	s.sessions[id] = sess
	s.order = append(s.order, id)
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, sessionView{ID: id, Status: sess.Snapshot()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]sessionView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, sessionView{ID: id, Status: s.sessions[id].Snapshot()})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
}

// lookup resolves {id}; a miss writes the 404 and returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (string, *session.Session) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return id, nil
	}
	return id, sess
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK, sessionView{ID: id, Status: sess.Snapshot()})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	_, sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	res, err := sess.Result()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"digest": res.Digest(),
		"result": res,
	})
}

func (s *Server) handleEpisodes(w http.ResponseWriter, r *http.Request) {
	_, sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	since := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("since: %w", err))
			return
		}
		since = n
	}
	events := sess.Episodes(since)
	next := since
	if len(events) > 0 {
		next = events[len(events)-1].Seq
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"state":  sess.State().String(),
		"events": events,
		"next":   next,
	})
}

// handleLifecycle maps the four verb endpoints onto session transitions.
// Illegal transitions are 409s: the request was well-formed, the session's
// state refused it.
func (s *Server) handleLifecycle(verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, sess := s.lookup(w, r)
		if sess == nil {
			return
		}
		var err error
		switch verb {
		case "start":
			err = sess.Start()
		case "pause":
			err = sess.Pause()
		case "resume":
			err = sess.Resume()
		case "stop":
			sess.Stop()
		}
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, sessionView{ID: id, Status: sess.Snapshot()})
	}
}

// registry resolves {id}'s live-node registry; sessions created without
// one refuse node traffic with a 409.
func (s *Server) registry(w http.ResponseWriter, r *http.Request) (string, *session.Session, *session.Registry) {
	id, sess := s.lookup(w, r)
	if sess == nil {
		return id, nil, nil
	}
	reg := sess.Registry()
	if reg == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("session %s has no live-node registry (create it with \"registry\": true)", id))
		return id, sess, nil
	}
	return id, sess, reg
}

// nodeID parses the {node} path component.
func nodeID(w http.ResponseWriter, r *http.Request) (int, bool) {
	n, err := strconv.Atoi(r.PathValue("node"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("node: %w", err))
		return 0, false
	}
	return n, true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	id, sess, reg := s.registry(w, r)
	if reg == nil {
		return
	}
	var req struct {
		Node      int `json:"node"`
		FromRound int `json:"from_round,omitempty"`
	}
	if !decodeBody(w, r, &req, false) {
		return
	}
	if err := reg.Register(req.Node, req.FromRound); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionView{ID: id, Status: sess.Snapshot()})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id, sess, reg := s.registry(w, r)
	if reg == nil {
		return
	}
	node, ok := nodeID(w, r)
	if !ok {
		return
	}
	var req struct {
		ThroughRound int `json:"through_round,omitempty"`
	}
	// A bare heartbeat (empty body) re-arms the deadline without raising
	// the node's declared progress.
	if !decodeBody(w, r, &req, true) {
		return
	}
	if err := reg.Heartbeat(node, req.ThroughRound); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionView{ID: id, Status: sess.Snapshot()})
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id, sess, reg := s.registry(w, r)
	if reg == nil {
		return
	}
	node, ok := nodeID(w, r)
	if !ok {
		return
	}
	round := 0
	if q := r.URL.Query().Get("round"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("round: %w", err))
			return
		}
		round = n
	}
	if err := reg.Deregister(node, round); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionView{ID: id, Status: sess.Snapshot()})
}

// StopAll stops every hosted session and waits for each to reach a
// terminal state — the server's graceful-shutdown tail after the HTTP
// listener has drained.
func (s *Server) StopAll() {
	s.mu.Lock()
	sessions := make([]*session.Session, 0, len(s.order))
	for _, id := range s.order {
		sessions = append(sessions, s.sessions[id])
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.Stop()
	}
	for _, sess := range sessions {
		sess.Wait()
	}
}

// maxBodyBytes caps every JSON request body; a larger one is answered 413
// before the server buffers it.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// A field v does not declare (at any depth, the spec included) is a 400, so
// a misspelt knob cannot silently fall back to its default. allowEmpty
// accepts a missing body, leaving v untouched. On failure it writes the 413
// or 400 response itself and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil, allowEmpty && errors.Is(err, io.EOF):
		return true
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
