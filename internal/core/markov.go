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
// Tags with equal periods are exchangeable, so the chain is enumerated
// lumped: one state per orbit under permutations of those tags, each
// weighted by its orbit size (see canon and orbitWeight).
//
// The executable protocol in internal/mac is the engineering twin of
// this model; property tests cross-check the two.
package core

import (
	"cmp"
	"fmt"
	"slices"

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

// MaxModelTags bounds the exact model. The full state space grows as
// (2*p*N)^T * lcm(p); the lumped chain keeps one state per orbit, which
// divides that by about the product of k! over each class of k
// equal-period tags. Either way exact analysis is for small T.
const MaxModelTags = 4

// Model is the enumerated, symmetry-lumped chain for one period
// assignment. Transitions are stored in CSR form: the successors of
// state i are to[rowStart[i]:rowStart[i+1]] with probabilities
// p[rowStart[i]:rowStart[i+1]], each row sorted by successor id.
type Model struct {
	Periods []mac.Period
	// NackThreshold is N from Fig. 7.
	NackThreshold uint8
	// Hyper is lcm(periods) — the slot phase space. It is computed as
	// the largest period, which equals the lcm because ValidPeriod
	// admits powers of two only.
	Hyper uint8

	// classes lists the tag indices of each equal-period class with at
	// least two members: the tags canon may permute.
	classes [][]int

	// list holds the canonical states in BFS order; the first numInit
	// are the post-RESET states. weight[i] is the orbit size of list[i].
	list    []State
	weight  []int32
	numInit int

	rowStart []int32
	to       []int32
	p        []float64
}

// NewModel enumerates the reachable lumped chain for the given periods.
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
	}
	for i := range periods {
		var class []int
		for j := range periods {
			if periods[j] == periods[i] {
				class = append(class, j)
			}
		}
		if len(class) > 1 && class[0] == i {
			m.classes = append(m.classes, class)
		}
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

// canon returns the orbit representative of s: the tag states of each
// equal-period class sorted by compareTags. step, transmitters and
// soloCompatible are symmetric in such tags, so s and canon(s) have the
// same future up to relabelling.
func (m *Model) canon(s State) State {
	for _, c := range m.classes {
		for a := 1; a < len(c); a++ {
			for b := a; b > 0 && compareTags(s.Tags[c[b]], s.Tags[c[b-1]]) < 0; b-- {
				s.Tags[c[b]], s.Tags[c[b-1]] = s.Tags[c[b-1]], s.Tags[c[b]]
			}
		}
	}
	return s
}

var factorial = [MaxModelTags + 1]int32{1, 1, 2, 6, 24}

// orbitWeight returns how many full-chain states the canonical state s
// stands for: per class of k tags, k! over the product of m! for each
// run of m identical tag states, multiplied across classes.
func (m *Model) orbitWeight(s State) int32 {
	w := int32(1)
	for _, c := range m.classes {
		w *= factorial[len(c)]
		run := 1
		for a := 1; a <= len(c); a++ {
			if a < len(c) && s.Tags[c[a]] == s.Tags[c[a-1]] {
				run++
				continue
			}
			w /= factorial[run]
			run = 1
		}
	}
	return w
}

// succ is one successor of a state and its transition probability.
type succ struct {
	s State
	p float64
}

// edge is one lumped transition while its CSR row is assembled.
type edge struct {
	to int32
	p  float64
}

// enumerate explores the reachable canonical states breadth-first and
// writes their transitions straight into the CSR arrays. Ids are
// assigned in BFS order, so row i is complete before row i+1 starts.
func (m *Model) enumerate() {
	ids := make(map[State]int32)
	add := func(s State) int32 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := int32(len(m.list))
		ids[s] = id
		m.list = append(m.list, s)
		m.weight = append(m.weight, m.orbitWeight(s))
		return id
	}
	for _, s := range m.initialStates() {
		add(m.canon(s))
	}
	m.numInit = len(m.list)

	m.rowStart = append(m.rowStart, 0)
	var buf []succ
	var row []edge
	for id := 0; id < len(m.list); id++ {
		buf = m.lumpedStep(m.list[id], buf[:0])
		// New ids are handed out in sorted state order, so numbering
		// (which fixes the float summation order of the solver) never
		// depends on map iteration.
		row = row[:0]
		for _, e := range buf {
			row = append(row, edge{add(e.s), e.p})
		}
		m.appendRow(row)
	}
}

// appendRow sorts row by successor id and appends it as the next CSR
// row.
func (m *Model) appendRow(row []edge) {
	slices.SortFunc(row, func(a, b edge) int { return cmp.Compare(a.to, b.to) })
	for _, e := range row {
		m.to = append(m.to, e.to)
		m.p = append(m.p, e.p)
	}
	m.rowStart = append(m.rowStart, int32(len(m.to)))
}

// lumpedStep appends to out the one-slot distribution from s over
// canonical successors, sorted by compareStates with equal successors
// merged. Every probability is a product of 1/p for power-of-two p, so
// the merged sums are exact.
func (m *Model) lumpedStep(s State, out []succ) []succ {
	start := len(out)
	out = m.step(s, out)
	dist := out[start:]
	for i := range dist {
		dist[i].s = m.canon(dist[i].s)
	}
	slices.SortStableFunc(dist, func(a, b succ) int { return compareStates(a.s, b.s) })
	n := 0
	for _, e := range dist {
		if n > 0 && dist[n-1].s == e.s {
			dist[n-1].p += e.p
			continue
		}
		dist[n] = e
		n++
	}
	return out[:start+n]
}

// compareTags orders tag states by (settled, offset, nacks), migrating
// before settled.
func compareTags(a, b TagState) int {
	if a.Settled != b.Settled {
		if b.Settled {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.Offset, b.Offset); c != 0 {
		return c
	}
	return cmp.Compare(a.Nacks, b.Nacks)
}

// compareStates is a total order on states (phase, then per-tag
// fields), used only to make enumeration order deterministic.
func compareStates(a, b State) int {
	if c := cmp.Compare(a.Phase, b.Phase); c != 0 {
		return c
	}
	for i := range a.Tags {
		if c := compareTags(a.Tags[i], b.Tags[i]); c != 0 {
			return c
		}
	}
	return 0
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

// soloCompatible reports whether tag i's candidate class avoids the
// class of every settled tag.
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

// step appends to out the one-slot transition distribution from s over
// raw (uncanonicalised) successors. Distinct offset choices give
// distinct states, so no successor appears twice.
func (m *Model) step(s State, out []succ) []succ {
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
	res := make([]outcome, len(m.Periods))
	if len(tx) == 1 {
		if m.soloCompatible(s, tx[0]) {
			res[tx[0]] = acked
		} else {
			res[tx[0]] = nacked
		}
	} else {
		for _, i := range tx {
			res[i] = nacked
		}
	}

	// Expand the product distribution over randomized offsets.
	var rec func(i int, st State, prob float64)
	rec = func(i int, st State, prob float64) {
		if i == len(m.Periods) {
			st.Phase = nextPhase
			out = append(out, succ{st, prob})
			return
		}
		cur := s.Tags[i]
		switch res[i] {
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
	return out
}

// NumStates returns the reachable state count of the full chain: the
// orbit weights summed over the canonical states.
func (m *Model) NumStates() int {
	n := 0
	for _, w := range m.weight {
		n += int(w)
	}
	return n
}

// NumAbsorbing returns the absorbing state count of the full chain.
func (m *Model) NumAbsorbing() int {
	n := 0
	for _, id := range m.AbsorbingStates() {
		n += int(m.weight[id])
	}
	return n
}

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

// AbsorbingStates lists the ids of absorbing canonical states.
func (m *Model) AbsorbingStates() []int {
	var out []int
	for id, s := range m.list {
		if m.IsAbsorbing(s) {
			out = append(out, id)
		}
	}
	return out
}

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
		for _, next := range m.to[m.rowStart[id]:m.rowStart[id+1]] {
			if !m.IsAbsorbing(m.list[next]) {
				return fmt.Errorf("core: absorbing state %d leaks to transient %d", id, next)
			}
		}
	}
	return nil
}

// VerifyReachability checks Lemma 3: from every reachable state there
// is a path of positive probability to an absorbing state.
func (m *Model) VerifyReachability() error {
	// Reverse-BFS from absorbing states over the transposed CSR:
	// pred[predStart[j]:predStart[j+1]] lists the predecessors of j.
	n := len(m.list)
	predStart := make([]int32, n+1)
	for _, j := range m.to {
		predStart[j+1]++
	}
	for j := 0; j < n; j++ {
		predStart[j+1] += predStart[j]
	}
	pred := make([]int32, len(m.to))
	fill := slices.Clone(predStart[:n])
	for i := 0; i < n; i++ {
		for _, j := range m.to[m.rowStart[i]:m.rowStart[i+1]] {
			pred[fill[j]] = int32(i)
			fill[j]++
		}
	}
	reach := make([]bool, n)
	queue := make([]int32, 0, n)
	for _, id := range m.AbsorbingStates() {
		reach[id] = true
		queue = append(queue, int32(id))
	}
	for head := 0; head < len(queue); head++ {
		j := queue[head]
		for _, from := range pred[predStart[j]:predStart[j+1]] {
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

// ExpectedAbsorptionSlots verifies reachability (Lemma 3), then
// solves (I-Q)t = 1 by value iteration on the CSR rows. It returns the
// expected slots-to-absorption from the uniform post-RESET initial
// distribution (the orbit-weighted mean over the canonical initial
// states), plus the worst single transient state.
func (m *Model) ExpectedAbsorptionSlots() (mean, worst float64, err error) {
	if err := m.VerifyReachability(); err != nil {
		return 0, 0, err
	}
	absorbing := make([]bool, len(m.list))
	for id, s := range m.list {
		absorbing[id] = m.IsAbsorbing(s)
	}
	rowStart, to, p := m.rowStart, m.to, m.p
	t := make([]float64, len(m.list))
	next := make([]float64, len(m.list))
	for iter := 0; iter < 1_000_000; iter++ {
		var delta float64
		for id, abs := range absorbing {
			if abs {
				next[id] = 0
				continue
			}
			v := 1.0
			for k := rowStart[id]; k < rowStart[id+1]; k++ {
				v += p[k] * t[to[k]]
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
	var sum, total float64
	for id := 0; id < m.numInit; id++ {
		w := float64(m.weight[id])
		sum += w * t[id]
		total += w
	}
	for _, v := range t {
		worst = max(worst, v)
	}
	return sum / total, worst, nil
}
