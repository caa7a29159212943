// Package core implements the paper's formal convergence model
// (Appendix C): the distributed slot allocation as an absorbing Markov
// chain. Each network state captures every tag's protocol state
// (MIGRATE/SETTLE), slot offset and NACK counter, plus the global slot
// phase; transitions follow the Fig. 7 state machine with uniform
// random offset re-selection. The package enumerates the exact chain
// for small networks and verifies the paper's three claims
// mechanically:
//
//	Lemma 1/2: states with all tags settled and conflict-free are
//	           absorbing;
//	Lemma 3:   every state reaches an absorbing state with positive
//	           probability (hence, by finiteness, with probability 1);
//	Theorem 4: the chain is absorbing; expected absorption times are
//	           computable by solving (I-Q)t = 1.
//
// The executable protocol in internal/mac is the engineering twin of
// this model; property tests cross-check the two.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mac"
)

// TagState is one tag's protocol configuration x_i = (z_i, a_i, c_i).
type TagState struct {
	Settled bool
	Offset  uint8
	Nacks   uint8
}

// State is the network configuration: the global slot phase plus every
// tag's state. States are comparable map keys via their encoding.
type State struct {
	Phase uint8
	Tags  [MaxModelTags]TagState
}

// MaxModelTags bounds the exact model; the state space grows as
// (2*p*N)^T * lcm(p), so exact analysis is for small T.
const MaxModelTags = 4

// Model is the enumerated chain for one period assignment.
type Model struct {
	Periods []mac.Period
	// NackThreshold is N from Fig. 7.
	NackThreshold uint8
	// Hyper is lcm(periods) — the slot phase space.
	Hyper uint8

	states map[State]int
	list   []State
	// trans[i] is the sparse outgoing distribution of state i.
	trans []map[int]float64
}

// NewModel enumerates the full reachable chain for the given periods.
func NewModel(periods []mac.Period, nackThreshold int) (*Model, error) {
	if len(periods) == 0 || len(periods) > MaxModelTags {
		return nil, fmt.Errorf("core: model supports 1..%d tags, got %d", MaxModelTags, len(periods))
	}
	hyper := 1
	for _, p := range periods {
		if !mac.ValidPeriod(p) {
			return nil, fmt.Errorf("core: invalid period %d", p)
		}
		if int(p) > hyper {
			hyper = int(p)
		}
	}
	pt := mac.Pattern{Periods: periods}
	if pt.Utilization() > 1+1e-12 {
		return nil, fmt.Errorf("core: utilization %v exceeds capacity", pt.Utilization())
	}
	m := &Model{
		Periods:       periods,
		NackThreshold: uint8(nackThreshold),
		Hyper:         uint8(hyper),
		states:        make(map[State]int),
	}
	m.enumerate()
	return m, nil
}

// initialStates returns all post-RESET configurations: phase 0, every
// tag migrating with any offset and zero NACKs.
func (m *Model) initialStates() []State {
	var out []State
	var rec func(i int, st State)
	rec = func(i int, st State) {
		if i == len(m.Periods) {
			out = append(out, st)
			return
		}
		for a := 0; a < int(m.Periods[i]); a++ {
			st.Tags[i] = TagState{Settled: false, Offset: uint8(a)}
			rec(i+1, st)
		}
	}
	rec(0, State{Phase: 0})
	return out
}

// enumerate explores the reachable state space breadth-first, building
// the sparse transition distributions.
func (m *Model) enumerate() {
	var queue []int
	add := func(s State) int {
		if id, ok := m.states[s]; ok {
			return id
		}
		id := len(m.list)
		m.states[s] = id
		m.list = append(m.list, s)
		m.trans = append(m.trans, nil)
		queue = append(queue, id)
		return id
	}
	for _, s := range m.initialStates() {
		add(s)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		dist := m.step(m.list[id])
		// Assign successor ids in sorted state order, not map iteration
		// order: ids fix the float summation order in the absorption
		// solver, so map-ordered numbering made expected times differ
		// in the last ulp between two identically-built models.
		succ := make([]State, 0, len(dist))
		for s := range dist {
			succ = append(succ, s)
		}
		sort.Slice(succ, func(i, j int) bool { return stateLess(succ[i], succ[j]) })
		out := make(map[int]float64, len(dist))
		for _, s := range succ {
			out[add(s)] += dist[s]
		}
		m.trans[id] = out
	}
}

// stateLess is a total order on states (phase, then per-tag fields),
// used only to make enumeration order deterministic.
func stateLess(a, b State) bool {
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	for i := range a.Tags {
		at, bt := a.Tags[i], b.Tags[i]
		if at.Settled != bt.Settled {
			return !at.Settled
		}
		if at.Offset != bt.Offset {
			return at.Offset < bt.Offset
		}
		if at.Nacks != bt.Nacks {
			return at.Nacks < bt.Nacks
		}
	}
	return false
}

// transmitters returns the indices of tags firing at the state's phase.
func (m *Model) transmitters(s State) []int {
	var tx []int
	for i, p := range m.Periods {
		if int(s.Phase)%int(p) == int(s.Tags[i].Offset) {
			tx = append(tx, i)
		}
	}
	return tx
}

// conflictFree reports whether the settled tags' classes are pairwise
// conflict-free and tag i's candidate class avoids them all.
func (m *Model) soloCompatible(s State, i int) bool {
	cand := mac.Assignment{Period: m.Periods[i], Offset: int(s.Tags[i].Offset)}
	for j, t := range s.Tags[:len(m.Periods)] {
		if j == i || !t.Settled {
			continue
		}
		other := mac.Assignment{Period: m.Periods[j], Offset: int(t.Offset)}
		if cand.Conflicts(other) {
			return false
		}
	}
	return true
}

// step returns the one-slot transition distribution from s.
func (m *Model) step(s State) map[State]float64 {
	tx := m.transmitters(s)
	nextPhase := uint8((int(s.Phase) + 1) % int(m.Hyper))

	// Determine per-tag outcomes. Only transmitters react; the reader
	// ACKs a solo transmitter iff settling it there cannot collide with
	// an already-settled tag (the Sec. 5.6 veto, which Lemma 1 relies
	// on).
	type outcome int
	const (
		idle outcome = iota
		acked
		nacked
	)
	out := make([]outcome, len(m.Periods))
	if len(tx) == 1 {
		if m.soloCompatible(s, tx[0]) {
			out[tx[0]] = acked
		} else {
			out[tx[0]] = nacked
		}
	} else {
		for _, i := range tx {
			out[i] = nacked
		}
	}

	// Expand the product distribution over randomized offsets.
	dist := map[State]float64{}
	var rec func(i int, st State, prob float64)
	rec = func(i int, st State, prob float64) {
		if i == len(m.Periods) {
			st.Phase = nextPhase
			dist[st] += prob
			return
		}
		cur := s.Tags[i]
		switch out[i] {
		case idle:
			st.Tags[i] = cur
			rec(i+1, st, prob)
		case acked:
			st.Tags[i] = TagState{Settled: true, Offset: cur.Offset, Nacks: 0}
			rec(i+1, st, prob)
		case nacked:
			if cur.Settled && cur.Nacks+1 < m.NackThreshold {
				st.Tags[i] = TagState{Settled: true, Offset: cur.Offset, Nacks: cur.Nacks + 1}
				rec(i+1, st, prob)
				return
			}
			// Migrate: uniform re-selection over the period.
			p := int(m.Periods[i])
			for a := 0; a < p; a++ {
				st.Tags[i] = TagState{Settled: false, Offset: uint8(a)}
				rec(i+1, st, prob/float64(p))
			}
		}
	}
	rec(0, State{}, 1.0)
	return dist
}

// NumStates returns the reachable state count.
func (m *Model) NumStates() int { return len(m.list) }

// IsAbsorbing implements Definition 2: all tags settled (which, with
// the veto in place, implies a conflict-free schedule — Lemma 1).
func (m *Model) IsAbsorbing(s State) bool {
	for i := range m.Periods {
		if !s.Tags[i].Settled {
			return false
		}
	}
	return true
}

// AbsorbingStates lists the ids of absorbing states.
func (m *Model) AbsorbingStates() []int {
	var out []int
	for id, s := range m.list {
		if m.IsAbsorbing(s) {
			out = append(out, id)
		}
	}
	return out
}

// StateByID returns the state for an id.
func (m *Model) StateByID(id int) State { return m.list[id] }

// VerifyLemma1 checks that every reachable all-settled state has a
// pairwise conflict-free schedule.
func (m *Model) VerifyLemma1() error {
	for _, id := range m.AbsorbingStates() {
		s := m.list[id]
		var as []mac.Assignment
		for i, p := range m.Periods {
			as = append(as, mac.Assignment{Period: p, Offset: int(s.Tags[i].Offset)})
		}
		if err := mac.VerifySchedule(as); err != nil {
			return fmt.Errorf("core: all-settled state %d collides: %w", id, err)
		}
	}
	return nil
}

// VerifyLemma2 checks that absorbing states only transition among
// absorbing states (settled tags never leave SETTLE under perfect
// links).
func (m *Model) VerifyLemma2() error {
	for _, id := range m.AbsorbingStates() {
		// Sorted successors: the reported leak must not depend on map
		// iteration order when several transitions violate the lemma.
		nexts := make([]int, 0, len(m.trans[id]))
		for next := range m.trans[id] {
			nexts = append(nexts, next)
		}
		sort.Ints(nexts)
		for _, next := range nexts {
			if m.trans[id][next] > 0 && !m.IsAbsorbing(m.list[next]) {
				return fmt.Errorf("core: absorbing state %d leaks to transient %d", id, next)
			}
		}
	}
	return nil
}

// VerifyReachability checks Lemma 3: from every reachable state there
// is a path of positive probability to an absorbing state.
func (m *Model) VerifyReachability() error {
	// Reverse-BFS from absorbing states.
	reach := make([]bool, len(m.list))
	rev := make([][]int, len(m.list))
	for from, dist := range m.trans {
		for to, p := range dist {
			if p > 0 {
				rev[to] = append(rev[to], from)
			}
		}
	}
	var queue []int
	for _, id := range m.AbsorbingStates() {
		reach[id] = true
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, from := range rev[id] {
			if !reach[from] {
				reach[from] = true
				queue = append(queue, from)
			}
		}
	}
	for id, ok := range reach {
		if !ok {
			return fmt.Errorf("core: state %d cannot reach any absorbing state", id)
		}
	}
	return nil
}

// edge is one flattened transition (used by the factored solver).
type edge struct {
	to int
	p  float64
}

// Factorization is the solver-ready form of a model's transition
// structure: reachability verified (Lemma 3), every sparse row
// flattened into a to-sorted edge list, absorbing states flagged, and
// the initial-distribution ids resolved — all computed exactly once per
// config. The expensive value iteration runs at most once (memoized)
// on reusable vectors, so sweeps that query the same config across many
// trials pay for one factor + one solve and then read a cached pair.
// Safe for concurrent use.
type Factorization struct {
	model *Model

	rows      [][]edge
	absorbing []bool
	initIDs   []int

	mu      sync.Mutex
	t, next []float64 // iteration vectors, reused
	solved  bool
	mean    float64
	worst   float64
}

// Factor verifies reachability and flattens the chain into a
// Factorization. Each row is sorted by successor id: float addition is
// order-sensitive, so summing in map iteration order would perturb the
// result in the last ulp from run to run (and the slice walk is far
// cheaper inside the million-iteration loop).
func (m *Model) Factor() (*Factorization, error) {
	if err := m.VerifyReachability(); err != nil {
		return nil, err
	}
	f := &Factorization{
		model:     m,
		rows:      make([][]edge, len(m.list)),
		absorbing: make([]bool, len(m.list)),
		t:         make([]float64, len(m.list)),
		next:      make([]float64, len(m.list)),
	}
	for id := range m.trans {
		row := make([]edge, 0, len(m.trans[id]))
		for to, p := range m.trans[id] {
			row = append(row, edge{to, p})
		}
		sort.Slice(row, func(i, j int) bool { return row[i].to < row[j].to })
		f.rows[id] = row
		f.absorbing[id] = m.IsAbsorbing(m.list[id])
	}
	for _, s := range m.initialStates() {
		f.initIDs = append(f.initIDs, m.states[s])
	}
	return f, nil
}

// ExpectedAbsorptionSlots solves (I-Q)t = 1 by value iteration on the
// factored rows and returns the expected slots-to-absorption from the
// uniform post-RESET initial distribution, plus the worst single
// transient state. The solve runs once; later calls return the
// memoized pair without touching the allocator.
func (f *Factorization) ExpectedAbsorptionSlots() (mean, worst float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.solved {
		return f.mean, f.worst, nil
	}
	t, next := f.t, f.next
	for i := range t {
		t[i] = 0
		next[i] = 0
	}
	for iter := 0; iter < 1_000_000; iter++ {
		var delta float64
		for id := range f.rows {
			if f.absorbing[id] {
				next[id] = 0
				continue
			}
			v := 1.0
			for _, e := range f.rows[id] {
				v += e.p * t[e.to]
			}
			if d := v - t[id]; d > delta {
				delta = d
			} else if -d > delta {
				delta = -d
			}
			next[id] = v
		}
		t, next = next, t
		if delta < 1e-10 {
			break
		}
	}
	var sum float64
	for _, id := range f.initIDs {
		sum += t[id]
	}
	worstV := 0.0
	for id := range t {
		if t[id] > worstV {
			worstV = t[id]
		}
	}
	f.mean = sum / float64(len(f.initIDs))
	f.worst = worstV
	f.solved = true
	return f.mean, f.worst, nil
}

// Model returns the enumerated chain this factorization was built from.
func (f *Factorization) Model() *Model { return f.model }

// Describe returns a short human-readable model summary.
func (m *Model) Describe() string {
	ps := make([]int, len(m.Periods))
	for i, p := range m.Periods {
		ps[i] = int(p)
	}
	sort.Ints(ps)
	return fmt.Sprintf("core: periods=%v N=%d states=%d absorbing=%d",
		ps, m.NackThreshold, m.NumStates(), len(m.AbsorbingStates()))
}
