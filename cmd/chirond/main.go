// Command chirond is the long-lived incentive server: it hosts scenario
// runs as sessions behind an HTTP/JSON API, with live edge-node
// registration and heartbeats during each session's hold phase, lifecycle
// control (start/pause/resume/stop), and streamed per-episode metrics.
//
// The serving layer never touches simulation state: wall-clock concerns
// (heartbeat deadlines, queue waits, shutdown) only decide when episodes
// run, so a hosted session's run digest is bit-identical to a CLI
// `chiron run -scenario` of the same spec and seed — live membership is
// latched at start into the same churn script the CLI accepts via -churn.
//
// Usage:
//
//	chirond [-addr :8377] [-workers N] [-queue N] [-retry-after 2s]
//	        [-heartbeat 30s]
//
// API:
//
//	GET    /healthz
//	POST   /sessions                      {"spec": {...}, "workers": N, "registry": true, "heartbeat": "5s"}
//	GET    /sessions
//	GET    /sessions/{id}
//	GET    /sessions/{id}/result
//	GET    /sessions/{id}/episodes?since=N
//	POST   /sessions/{id}/start|pause|resume|stop
//	POST   /sessions/{id}/nodes           {"node": 2, "from_round": 3}
//	POST   /sessions/{id}/nodes/{node}/heartbeat   {"through_round": 6}
//	DELETE /sessions/{id}/nodes/{node}?round=K
//
// A full backlog answers POST /sessions with 429 and a Retry-After header;
// a create, register or heartbeat body over 1 MiB is answered 413, and one
// carrying a field the endpoint does not declare is answered 400.
//
// Sessions' PPO update streams and fleet round bands use GOMAXPROCS−1
// workers (at least one), leaving a core for the request path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"chiron/internal/mat"
	"chiron/internal/session"
)

// Connection limits: a client gets readHeaderTimeout to send its request
// headers, and an idle keep-alive connection is closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := serve(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "chirond: %v\n", err)
		os.Exit(1)
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("chirond", flag.ContinueOnError)
	addr := fs.String("addr", ":8377", "listen address")
	workers := fs.Int("workers", 2, "sessions running episodes concurrently")
	queue := fs.Int("queue", 8, "additional sessions admitted beyond the running ones")
	retryAfter := fs.Duration("retry-after", 2*time.Second, "Retry-After hint served with 429 when the backlog is full")
	heartbeat := fs.Duration("heartbeat", 30*time.Second, "default registry heartbeat timeout for sessions created with \"registry\": true")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pool, err := session.NewPool(*workers, *queue, *retryAfter)
	if err != nil {
		return err
	}
	// The PPO update's independent streams run on as many cores as
	// mat.Workers allows; keep one core for the request path so
	// control-plane latency does not queue behind learners.
	mat.SetWorkers(max(1, runtime.GOMAXPROCS(0)-1))
	srv := newServer(pool, nil, *heartbeat)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// SIGINT/SIGTERM drains the listener, then stops every hosted session
	// at its next episode boundary and waits for the terminal states.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "chirond: shutting down")
		drain, done := context.WithTimeout(context.Background(), 10*time.Second)
		defer done()
		if err := httpSrv.Shutdown(drain); err != nil {
			fmt.Fprintf(os.Stderr, "chirond: drain: %v\n", err)
		}
	}()

	fmt.Printf("chirond listening on %s (workers=%d, queue=%d)\n", *addr, *workers, *queue)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.StopAll()
	fmt.Println("chirond: all sessions stopped")
	return nil
}
