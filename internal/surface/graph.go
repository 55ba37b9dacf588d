package surface

// boundary is the far end of a boundary edge.
const boundary = -1

// graph is the decoding graph of a patch's X-error sector, the sector every
// MC here simulates; the Z sector is its mirror image and has the same rate.
// It has one node per Z check and one edge per data qubit, joining the
// qubit's two Z checks or its one Z check to the boundary. An edge is marked
// when its qubit lies on the Z logical's support, data row 0, so a set of
// edges flips the logical qubit when it holds an odd number of marked ones.
//
// All lengths are unit, so breadth-first search builds the tables: the
// shortest node-to-node path length over paths that do not pass through the
// boundary, the shortest node-to-boundary path length, and each path's
// logical parity. Two paths with the same ends differ by stabilisers, so
// they flip the logical qubit alike, and at odd d no check is equally far
// from the top and the bottom boundary, so every shortest boundary path
// of a check ends on the same side: each parity is that of every shortest
// path. The graph is read-only after construction, so every shard of a run
// shares one.
type graph struct {
	d      int
	edges  [][2]int32 // per data qubit: its Z checks, the second boundary on a boundary edge
	marked []bool     // per data qubit: it lies on data row 0 (qubits 0..d−1)

	w    []int32 // nz×nz node-to-node path lengths
	wPar []bool  // nz×nz node-to-node path parities
	b    []int32 // node-to-boundary path lengths
	bPar []bool  // node-to-boundary path parities
}

func newGraph(p *Patch) *graph {
	nd := p.DataQubits()
	g := &graph{d: p.D, edges: make([][2]int32, nd), marked: make([]bool, nd)}
	for q := range g.edges {
		g.edges[q] = [2]int32{boundary, boundary}
		g.marked[q] = q < p.D
	}
	nz := int32(0)
	for _, a := range p.Ancillas {
		if a.Type != ZAncilla {
			continue
		}
		for _, q := range a.Data {
			if e := &g.edges[q]; e[0] == boundary {
				e[0] = nz
			} else {
				e[1] = nz
			}
		}
		nz++
	}

	// inner lists each node's edges to other nodes; the boundary search
	// starts from every node with a boundary edge, one step away.
	inner := make([][]int32, nz)
	queue := make([]int32, 0, nz)
	g.b, g.bPar = make([]int32, nz), make([]bool, nz)
	for z := range g.b {
		g.b[z] = -1
	}
	for q, e := range g.edges {
		if e[1] != boundary {
			inner[e[0]] = append(inner[e[0]], int32(q))
			inner[e[1]] = append(inner[e[1]], int32(q))
		} else if g.b[e[0]] < 0 {
			g.b[e[0]], g.bPar[e[0]] = 1, g.marked[q]
			queue = append(queue, e[0])
		}
	}
	g.search(inner, queue, g.b, g.bPar)

	n := int(nz)
	g.w, g.wPar = make([]int32, n*n), make([]bool, n*n)
	for z := 0; z < n; z++ {
		row := g.w[z*n : (z+1)*n]
		for i := range row {
			row[i] = -1
		}
		row[z] = 0
		g.search(inner, append(queue[:0], int32(z)), row, g.wPar[z*n:(z+1)*n])
	}
	return g
}

// search extends lengths and parities breadth-first over the inner edges
// from queue, whose nodes are already set; unreached nodes stay at -1.
func (g *graph) search(inner [][]int32, queue []int32, length []int32, par []bool) {
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, q := range inner[u] {
			e := g.edges[q]
			if v := e[0] + e[1] - u; length[v] < 0 {
				length[v], par[v] = length[u]+1, par[u] != g.marked[q]
				queue = append(queue, v)
			}
		}
	}
}

// flip applies the data-qubit flips in hits to the syndrome syn and returns
// their logical parity. The syndrome is linear over GF(2) in the error, so
// if syn is the syndrome of an error before, it is the syndrome of the
// error after, whatever the flips' order.
func (g *graph) flip(syn []bool, hits []int32) bool {
	par := false
	for _, q := range hits {
		e := g.edges[q]
		syn[e[0]] = !syn[e[0]]
		if e[1] != boundary {
			syn[e[1]] = !syn[e[1]]
		}
		par = par != g.marked[q]
	}
	return par
}

// stDist is the space-time decoding metric: the node-to-node path length
// plus the time separation.
func (g *graph) stDist(a, b spacetimeNode) int32 {
	dt := int32(a.t - b.t)
	if dt < 0 {
		dt = -dt
	}
	return g.w[a.z*len(g.b)+b.z] + dt
}
