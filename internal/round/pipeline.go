package round

import "fmt"

// Pipeline is the assembled stage chain for one environment. The stages
// trust their fields: edgeenv.New assembles the chain from a validated
// edgeenv.Config with the default quorum and empty-round timeout already
// resolved. It is not safe for concurrent use (stages share the State and the churn RNG);
// independent environments each own an independent pipeline, which is what
// lets experiment sweeps run grid cells in parallel. (The node axis inside
// Respond/Execute shards into bands via mat.ParallelRange, but that
// parallelism is internal to a single Run.)
type Pipeline struct {
	Offer   Offer
	Respond Respond
	Execute Execute
	Settle  Settle
	Commit  Commit
}

// Stages returns the chain in execution order.
func (p *Pipeline) Stages() []Stage {
	return []Stage{p.Offer, p.Respond, p.Execute, p.Settle, p.Commit}
}

// Run drives st through the stage chain, stopping at the first terminal
// status (an empty offer or a budget-infeasible round skips the remaining
// stages). Errors are wrapped with the failing stage's name.
func (p *Pipeline) Run(st *State) error {
	for _, s := range p.Stages() {
		if err := s.Run(st); err != nil {
			return fmt.Errorf("round: %s: %w", s.Name(), err)
		}
		if st.Status != StatusPending {
			return nil
		}
	}
	return nil
}
