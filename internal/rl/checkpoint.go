package rl

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrCorruptCheckpoint reports a checkpoint that cannot be restored:
// truncated mid-write, invalid JSON, or structurally incomplete (missing an
// agent snapshot the mechanism requires). Callers distinguish it from shape
// mismatches and I/O errors with errors.Is.
var ErrCorruptCheckpoint = errors.New("rl: corrupt checkpoint")

// ErrShapeMismatch reports a structurally valid checkpoint whose pins do
// not match the restoring mechanism: a different mechanism tag, fleet
// size, or observation width. It marks a stale file from another
// configuration — recoverable by falling back to an older checkpoint,
// unlike a hard I/O error.
var ErrShapeMismatch = errors.New("rl: checkpoint shape mismatch")

// AgentState is one agent's slice of a checkpoint: its learnable snapshot
// plus any rollout experience carried across episodes by MinSamples
// batching, so a resumed run updates on exactly the batch the uninterrupted
// run would have.
type AgentState struct {
	Name     string       `json:"name"`
	Snapshot *Snapshot    `json:"snapshot"`
	Buffer   []Transition `json:"buffer,omitempty"`
}

// Checkpoint is the unified serializable training state shared by every
// learnable mechanism: the per-agent snapshots and buffers, the episode
// counter, the mechanism RNG position, and an environment-shape pin so a
// mismatched restore fails loudly instead of silently loading weights into
// the wrong architecture. Extra carries mechanism-specific state (e.g. the
// Greedy replay buffer).
type Checkpoint struct {
	Mechanism string `json:"mechanism,omitempty"`
	// Nodes and StateDim pin the environment shape the checkpoint was
	// trained against (StateDim is the primary agent's observation width;
	// 0 for mechanisms without a network).
	Nodes    int             `json:"nodes"`
	StateDim int             `json:"state_dim"`
	Episode  int             `json:"episode"`
	RNG      *RNGState       `json:"rng,omitempty"`
	Agents   []AgentState    `json:"agents,omitempty"`
	Extra    json.RawMessage `json:"extra,omitempty"`
}

// Agent returns the named agent's state, or nil when absent.
func (c *Checkpoint) Agent(name string) *AgentState {
	for i := range c.Agents {
		if c.Agents[i].Name == name {
			return &c.Agents[i]
		}
	}
	return nil
}

// CheckPins validates ck against the restoring mechanism before any state
// is touched. ck must be non-nil and carry mechanism's tag (an untagged
// legacy file is accepted); a foreign tag wraps ErrShapeMismatch. Every
// named agent must hold a snapshot, else the error wraps
// ErrCorruptCheckpoint. Finally the fleet size and the primary agent's
// observation width (0 for mechanisms without a network) must match,
// else ErrShapeMismatch.
func CheckPins(ck *Checkpoint, mechanism string, nodes, stateDim int, agents ...string) error {
	if ck == nil {
		return fmt.Errorf("rl: restore from nil checkpoint")
	}
	if ck.Mechanism != "" && ck.Mechanism != mechanism {
		return fmt.Errorf("%w: checkpoint for mechanism %q, want %q", ErrShapeMismatch, ck.Mechanism, mechanism)
	}
	for _, name := range agents {
		if st := ck.Agent(name); st == nil || st.Snapshot == nil {
			return fmt.Errorf("%w: missing %q agent snapshot", ErrCorruptCheckpoint, name)
		}
	}
	if ck.Nodes != nodes || ck.StateDim != stateDim {
		return fmt.Errorf("%w: checkpoint for %d nodes / state dim %d, environment has %d / %d",
			ErrShapeMismatch, ck.Nodes, ck.StateDim, nodes, stateDim)
	}
	return nil
}

// PairState captures a pair's agent snapshot and buffered experience under
// the pair's name.
func PairState(p *Pair) AgentState {
	st := AgentState{Name: p.Name, Snapshot: p.Agent.Snapshot()}
	if n := p.Buf.Len(); n > 0 {
		st.Buffer = make([]Transition, n)
		for i, t := range p.Buf.Transitions() {
			st.Buffer[i] = Transition{
				State:     append([]float64(nil), t.State...),
				Action:    append([]float64(nil), t.Action...),
				Reward:    t.Reward,
				NextState: append([]float64(nil), t.NextState...),
				Done:      t.Done,
				LogProb:   t.LogProb,
			}
		}
	}
	return st
}

// RestorePair overwrites a pair's agent and buffer from st. The snapshot
// must be present; its absence marks a corrupt checkpoint.
func RestorePair(p *Pair, st *AgentState) error {
	if st == nil || st.Snapshot == nil {
		return fmt.Errorf("%w: missing %q agent snapshot", ErrCorruptCheckpoint, p.Name)
	}
	if err := p.Agent.Restore(st.Snapshot); err != nil {
		return fmt.Errorf("rl: restore %s: %w", p.Name, err)
	}
	p.Buf.Reset()
	for _, t := range st.Buffer {
		p.Buf.Add(t)
	}
	return nil
}

// SaveCheckpoint writes ck as JSON to path, crash-safely: the bytes land
// in a temporary file in path's directory and are renamed into place, so a
// crash mid-write can never leave a torn checkpoint at the target path —
// the reader sees either the old complete file or the new one. (Rename is
// atomic only within a filesystem, which staging in the same directory
// guarantees.)
func SaveCheckpoint(path string, ck *Checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("rl: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("rl: stage checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		// CreateTemp's 0600 would tighten the 0644 the pre-atomic writer
		// produced; keep checkpoints world-readable as before.
		werr = os.Chmod(tmpName, 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmpName, path)
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("rl: write checkpoint: %w", werr)
	}
	return nil
}

// LoadCheckpoint reads a JSON checkpoint written by SaveCheckpoint. A file
// truncated mid-write or otherwise unparseable fails with an error wrapping
// ErrCorruptCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rl: read checkpoint: %w", err)
	}
	return ParseCheckpoint(data)
}

// ParseCheckpoint decodes the JSON form of a checkpoint. Bytes that do not
// parse fail with an error wrapping ErrCorruptCheckpoint.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("%w: parse: %v", ErrCorruptCheckpoint, err)
	}
	return &ck, nil
}
