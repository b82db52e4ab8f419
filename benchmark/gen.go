package main

// ruleOp is one generated FIB update — an IPv4 nw_dst match forwarding
// to one port, added or strictly deleted. It is all the generator knows
// of a FlowMod; bed.go turns it into the 80-byte wire message, the
// smallest realistic rule.
type ruleOp struct {
	Dst  uint32 // IPv4 destination, exact match
	Port uint16 // output port
	Del  bool   // strict delete of the rule an earlier op added
}

// rng is splitmix64: tiny, seedable and stable across Go releases, so a
// seed names the same input stream forever (math/rand's stream is not
// part of its compatibility promise).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// streamSeed derives an independent stream for one switch of one
// workload from the run's seed.
func streamSeed(seed int64, workload string, stream int) uint64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xd1342543de82ef95
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// opGen produces one switch's endless update stream: batches of adds
// with fresh seeded addresses, each optionally followed by the strict
// deletes of those same adds in a seeded order.
type opGen struct {
	r     rng
	ports int
	adds  []ruleOp // the current batch's adds, kept for its deletes
}

func newOpGen(seed int64, workload string, stream, ports int) *opGen {
	return &opGen{r: rng{s: streamSeed(seed, workload, stream)}, ports: ports}
}

// addr draws a destination in 10.0.0.0/8; a repeat only re-adds a rule,
// which every layer accepts.
func (g *opGen) addr() uint32 { return 10<<24 | uint32(g.r.next()&0xffffff) }

// batch appends nAdds adds and then nDels (<= nAdds) strict deletes of
// them to buf and returns it.
func (g *opGen) batch(buf []ruleOp, nAdds, nDels int) []ruleOp {
	g.adds = g.adds[:0]
	for i := 0; i < nAdds; i++ {
		op := ruleOp{Dst: g.addr(), Port: uint16(1 + g.r.intn(g.ports))}
		g.adds = append(g.adds, op)
		buf = append(buf, op)
	}
	// Delete in a seeded rotation of the add order: cheap, and enough to
	// make removal order part of the input.
	rot := 0
	if nDels > 0 {
		rot = g.r.intn(nAdds)
	}
	for i := 0; i < nDels; i++ {
		op := g.adds[(rot+i)%nAdds]
		op.Del = true
		buf = append(buf, op)
	}
	return buf
}
