package intent

import (
	"encoding/json"
	"fmt"
	"time"
)

// The intent plane's transitions. Drafts are mutable metadata, not
// transitions.
type (
	// templatePublished promotes a draft that passed every guardrail,
	// carrying its content (a fold holds no drafts).
	templatePublished struct {
		Template
		at time.Time
	}
	// fleetInstantiated records the members; each admitted one runs its
	// template version's provisioning cap.
	fleetInstantiated struct{ Fleet }
	// rolloutStarted records the canary set and violation baselines.
	rolloutStarted struct{ Rollout }
	// rolloutDecided closes the window; a promotion moves the fleet.
	rolloutDecided struct {
		id, reason string
		phase      RolloutPhase
		violations int
		at         time.Time
	}
)

// apply writes one transition: every intent verb holds the store's lock end
// to end, orchestrator calls included, and ends in one apply. Under an
// audited orchestrator the fold store applies it too and must stay equal.
func (s *Store) apply(tr any) {
	switch tr := tr.(type) {
	case templatePublished:
		tr.State, tr.PublishedAt = TemplatePublished, tr.at
		vs := s.byName[tr.Name]
		for len(vs) < tr.Version {
			vs = append(vs, Template{})
		}
		vs[tr.Version-1] = tr.Template
		s.byName[tr.Name] = vs
	case fleetInstantiated:
		s.fleets = append(s.fleets, &tr.Fleet)
	case rolloutStarted:
		s.rollouts = append(s.rollouts, &tr.Rollout)
	case rolloutDecided:
		r := s.rollout(tr.id)
		r.Phase, r.Violations, r.DecidedAt, r.Reason = tr.phase, tr.violations, tr.at, tr.reason
		if tr.phase == RolloutPromoted {
			s.fleet(r.Fleet).Version = r.ToVersion
		}
	default:
		panic(fmt.Sprintf("intent: unknown transition %T", tr))
	}
	if s.fold != nil {
		s.fold.apply(tr)
		s.audit.Fold("intent", fmt.Sprintf("%T", tr), s.digest(), s.fold.digest())
	}
}

// fleet and rollout look a record up by ID (nil if unknown).
func (s *Store) fleet(id string) *Fleet {
	for _, f := range s.fleets {
		if f.ID == id {
			return f
		}
	}
	return nil
}

func (s *Store) rollout(id string) *Rollout {
	for _, r := range s.rollouts {
		if r.ID == id {
			return r
		}
	}
	return nil
}

func (s *Store) digest() []byte {
	published := make(map[string][]Template)
	for name, vs := range s.byName {
		for _, v := range vs {
			if v.State == TemplatePublished {
				published[name] = append(published[name], v)
			}
		}
	}
	b, _ := json.Marshal([]any{published, s.fleets, s.rollouts})
	for _, r := range s.rollouts {
		b = fmt.Appendln(b, r.baseline)
	}
	return b
}
