package protocol

import (
	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// centralityProgram is the second round of controlled flooding (paper
// Sec. III-A): each node broadcasts its K-hop neighborhood size within its
// L-hop neighbors, then computes its L-centrality and index. Hop counters
// travel in the payload with minimum-hop re-forwarding, so the phase is
// exact under message jitter. Batches travel as kindSizeBatch packed words
// — two words per (ID, size, hops) entry — built in the engine's scratch
// buffer. The dedup table needs only hop counters: a node's K-hop size
// never changes, so each size is added to sum once, when its ID is first
// learned.
type centralityProgram struct {
	l    int32
	id   int32
	size int32   // the node's own K-hop size
	tab  flatmap // ID -> smallest hop counter heard
	sum  int64   // K-hop sizes of the IDs in tab
}

var _ simnet.Program = (*centralityProgram)(nil)

func (p *centralityProgram) Init(ctx *simnet.Context) {
	// A handed-over K-hop table is emptied here, on the stepping worker,
	// rather than serially in runCentrality. Reserving is then a no-op when
	// L <= K: N_L is a subset of N_K, so the slots already fit.
	p.tab.reset()
	p.tab.reserve(reachSize(ctx.Degree(), int(p.l)))
	self, _ := p.tab.upsert(p.id)
	self.hops = 0
	p.sum = int64(p.size)
	out := ctx.Scratch()
	*out = append(*out, packPair(p.id, p.size), 1)
	ctx.BroadcastPacked(kindSizeBatch, *out)
}

func (p *centralityProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	out := ctx.Scratch()
	for _, env := range inbox {
		kind, ws, _ := env.Packed()
		if kind != kindSizeBatch {
			continue
		}
		for i := 0; i+1 < len(ws); i += 2 {
			id, size := unpackPair(ws[i])
			p.learn(out, id, size, int32(ws[i+1]))
		}
	}
	if len(*out) > 0 {
		ctx.BroadcastPacked(kindSizeBatch, *out)
	}
}

// learn applies minimum-hop dedup and queues in-horizon entries on out for
// re-forwarding, exactly as neighborhoodProgram.learn.
func (p *centralityProgram) learn(out *[]uint64, id, size, hops int32) {
	s, fresh := p.tab.upsert(id)
	if fresh {
		p.sum += int64(size)
	} else if s.hops <= hops {
		return
	}
	s.hops = hops
	if hops < p.l {
		*out = append(*out, packPair(id, size), uint64(hops+1))
	}
}

// centrality returns c_L(p): the average K-hop size over the learned L-hop
// neighborhood including the node itself (matching core.indexField). The
// sum is integer, so the result is independent of arrival order.
func (p *centralityProgram) centrality() float64 {
	return float64(p.sum) / float64(p.tab.len())
}

// runCentrality executes the centrality phase and derives the index. When
// tables is non-nil, node v's program takes over tables[v] — its emptied
// K-hop table from runNeighborhood — instead of allocating a fresh one.
func runCentrality(g *graph.Graph, l int, khop []int, tables []flatmap, po phaseOpts) (cent, index []float64, stats simnet.Stats, err error) {
	nodes := make([]centralityProgram, g.N())
	programs := make([]simnet.Program, g.N())
	for v := range nodes {
		p := &nodes[v]
		p.l, p.id, p.size = int32(l), int32(v), int32(khop[v])
		if tables != nil {
			p.tab = tables[v]
		}
		programs[v] = p
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		return nil, nil, simnet.Stats{}, err
	}
	po.configure(sim)
	stats, err = sim.Run()
	if err != nil {
		return nil, nil, stats, err
	}
	cent = make([]float64, g.N())
	index = make([]float64, g.N())
	for v := range nodes {
		cent[v] = nodes[v].centrality()
		index[v] = (float64(khop[v]) + cent[v]) / 2
	}
	return cent, index, stats, nil
}
