package protocol

import (
	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// neighborhoodProgram learns the node's K-hop neighborhood by controlled
// flooding (paper Sec. III-A, first round of flooding): each entry carries
// its hop counter — the "counter" of the paper's description, carried in
// the payload rather than inferred from delivery rounds so the protocol
// stays correct when message timing is not uniform. A node records unknown
// IDs and re-forwards them while the counter is below K, batching
// everything learned in one step into a single transmission. Batches
// travel as kindIDBatch packed words — one word per (ID, hops) entry —
// built in the engine's scratch buffer, and the dedup table is a flatmap,
// so a step allocates only when the table grows.
type neighborhoodProgram struct {
	k     int32
	known flatmap // ID -> smallest hop counter heard
}

var _ simnet.Program = (*neighborhoodProgram)(nil)

func (p *neighborhoodProgram) Init(ctx *simnet.Context) {
	p.known.reserve(reachSize(ctx.Degree(), int(p.k)))
	self, _ := p.known.upsert(int32(ctx.ID()))
	self.hops = 0
	out := ctx.Scratch()
	*out = append(*out, packPair(int32(ctx.ID()), 1))
	ctx.BroadcastPacked(kindIDBatch, *out)
}

func (p *neighborhoodProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	out := ctx.Scratch()
	for _, env := range inbox {
		kind, ws, _ := env.Packed()
		if kind != kindIDBatch {
			continue
		}
		for _, w := range ws {
			id, hops := unpackPair(w)
			p.learn(out, id, hops)
		}
	}
	if len(*out) > 0 {
		ctx.BroadcastPacked(kindIDBatch, *out)
	}
}

// learn records the smallest hop counter per ID and queues the entry on out
// for re-forwarding while it is still inside the K-hop horizon. Under
// message jitter an identity can first arrive via a longer route, and the
// shorter one must still be re-forwarded so fringe nodes within the horizon
// are not missed.
func (p *neighborhoodProgram) learn(out *[]uint64, id, hops int32) {
	s, fresh := p.known.upsert(id)
	if !fresh && s.hops <= hops {
		return
	}
	s.hops = hops
	if hops < p.k {
		*out = append(*out, packPair(id, hops+1))
	}
}

// size returns |N_k| (the node itself excluded).
func (p *neighborhoodProgram) size() int { return p.known.len() - 1 }

// runNeighborhood executes the K-hop discovery phase. Besides the sizes it
// returns each node's dedup table, for the centrality phase to take over.
func runNeighborhood(g *graph.Graph, k int, po phaseOpts) ([]int, []flatmap, simnet.Stats, error) {
	nodes := make([]neighborhoodProgram, g.N())
	programs := make([]simnet.Program, g.N())
	for v := range nodes {
		nodes[v].k = int32(k)
		programs[v] = &nodes[v]
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		return nil, nil, simnet.Stats{}, err
	}
	po.configure(sim)
	stats, err := sim.Run()
	if err != nil {
		return nil, nil, stats, err
	}
	khop := make([]int, g.N())
	tables := make([]flatmap, g.N())
	for v := range nodes {
		khop[v] = nodes[v].size()
		tables[v] = nodes[v].known
	}
	return khop, tables, stats, nil
}
