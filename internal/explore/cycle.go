package explore

// Edge is one arc of a configuration graph in dense visited-set ids, as
// admitted by a sharded run's shard owners.  The sharded engine logs
// edges per worker and the distributed coordinator collects them from
// batch acks; both feed HasCycle for livelock detection.
type Edge struct{ From, To int64 }

// EdgeLog is an edge list kept as a list of chunks.  A sharded run's
// workers each append to their own log, whose chunks start at 256 edges
// and double up to 32 Ki, so the log never copies an edge to grow; a
// run's result is every worker's chunks side by side, read in place by
// HasCycle.
type EdgeLog [][]Edge

const (
	edgeChunkMin = 256
	edgeChunkMax = 32 << 10
)

// add appends e, opening a new chunk when the last one is full.
func (l *EdgeLog) add(e Edge) {
	n := len(*l)
	if n == 0 || len((*l)[n-1]) == cap((*l)[n-1]) {
		size := edgeChunkMin
		if n > 0 {
			size = min(2*cap((*l)[n-1]), edgeChunkMax)
		}
		*l = append(*l, make([]Edge, 0, size))
		n++
	}
	(*l)[n-1] = append((*l)[n-1], e)
}

// Len returns the number of edges in the log.
func (l EdgeLog) Len() int {
	var n int
	for _, c := range l {
		n += len(c)
	}
	return n
}

// adjacency returns the graph with n nodes (labelled 0..n-1) and the
// given arcs in compressed form: v's successors are adj[off[v]:off[v+1]],
// each node's in the reverse of their order in the log.
func adjacency(n int, edges EdgeLog) (off, adj []int64) {
	// Counting sort, straight from the chunks: off[v] counts v's arcs,
	// then (prefix sums) marks the end of v's run; placing each arc at its
	// node's decremented end leaves off[v] at the run's start.
	off = make([]int64, n+1)
	for _, c := range edges {
		for _, e := range c {
			off[e.From]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj = make([]int64, edges.Len())
	for _, c := range edges {
		for _, e := range c {
			off[e.From]--
			adj[off[e.From]] = e.To
		}
	}
	return off, adj
}

// HasCycle reports whether the graph with n nodes (labelled 0..n-1) and
// the given arcs contains a cycle — the frontier engines' counterpart of
// the serial checker's grey/black back-edge detection, run as a post-pass
// over the in-memory id graph (cheap next to exploration, which pays for
// cloning and stepping configurations).  Parallel and duplicate arcs are
// permitted; they cannot change cycle existence.
func HasCycle(n int, edges EdgeLog) bool {
	if n == 0 || edges.Len() == 0 {
		return false
	}
	off, succ := adjacency(n, edges)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, n)
	type frame struct {
		node int64
		ei   int64
	}
	var stack []frame
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		color[start] = grey
		stack = append(stack[:0], frame{node: int64(start), ei: off[start]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < off[f.node+1] {
				next := succ[f.ei]
				f.ei++
				switch color[next] {
				case white:
					color[next] = grey
					stack = append(stack, frame{node: next, ei: off[next]})
				case grey:
					return true
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return false
}
