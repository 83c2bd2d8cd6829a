package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// A stmt is one statement a workload registers. Point statements take the
// single parameter $src; the others are full-result scans.
type stmt struct {
	Name  string
	Src   string
	Point bool
}

// A relData is one generated relation, shipped to the server as CSV.
type relData struct {
	Name string
	CSV  []byte
	Rows int
}

// A req is one read request of a workload's sequence: the statement index
// and, for point statements, the key bound to $src.
type req struct {
	Stmt int
	Key  string
	Body []byte // the exec request body, pre-rendered
}

// A workload is everything a run sends: the data, the statements, the
// read sequence the clients walk, and the edge batches the writer inserts
// and deletes. It is a pure function of the workload name and seed.
type workload struct {
	Name       string
	Why        string
	Seed       int64
	Rels       []relData
	Reads      []stmt
	Views      []stmt
	Seq        []req
	Batches    [][][2]string // edge batches over E, each absent from the base data
	Nodes      int
	StringKeys bool
	// Writer is true when a writer runs inside the timed window (rw);
	// otherwise the write probe runs after the window.
	Writer bool
}

const (
	seqLen    = 4096 // read requests per sequence; clients cycle through it
	batchSize = 128  // edges per writer insert/delete
	nBatches  = 64   // distinct writer batches, reused cyclically
)

// Lookup graph shape: reader-region nodes are the only lookup keys; the
// writer only adds edges between writer-region nodes. Neither region has
// edges into the other, so a write never changes a lookup's answer while
// still invalidating every plan over E and changing both views.
//
// rw uses the same shape at under half the size. After each write every
// read statement replans at a cost that grows with |E|; at lookup's size
// the replans after one write in ten reads would take most of the
// reader's time, and its throughput would swing with every change in
// host speed.
const (
	lookupReaders = 10000
	lookupWriters = 1000
	rwReaders     = 4000
	rwWriters     = 500
	lookupOutDeg  = 5
	zipfS         = 1.2
)

// Analytic graph shape: groups of analyticGroup nodes with analyticIntra
// out-edges inside the group and analyticInter to anywhere, plus a hub
// relation H whose triangles route to the worst-case-optimal engine.
const (
	analyticNodes = 6000
	analyticGroup = 12
	analyticIntra = 3
	analyticInter = 1
	hubCount      = 3
	hubLeaves     = 3000
	hubCross      = 3000
)

var lookupReads = []stmt{
	{Name: "adj", Src: "Q(y) :- E($src, y).", Point: true},
	{Name: "hop2", Src: "Q(y) :- E($src, x), E(x, y).", Point: true},
	{Name: "rev", Src: "Q(x) :- E(x, $src).", Point: true},
}

var analyticReads = []stmt{
	{Name: "hop2", Src: "Q(x, z) :- E(x, y), E(y, z)."},
	{Name: "hop2lt", Src: "Q(x, z) :- E(x, y), E(y, z), x < z."},
	{Name: "cycle4", Src: "Q(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x)."},
	{Name: "trineq", Src: "Q(x, y, z) :- E(x, y), E(y, z), E(z, x), x != y."},
	{Name: "hubtri", Src: "Q(x, y, z) :- H(x, y), H(y, z), H(z, x)."},
}

// standingViews are the two maintained views: a 2-hop and a triangle.
var standingViews = []stmt{
	{Name: "v2hop", Src: "V(x, z) :- E(x, y), E(y, z)."},
	{Name: "vtri", Src: "V(x, y, z) :- E(x, y), E(y, z), E(z, x)."},
}

// makeWorkload generates the named workload from seed. Equal arguments give
// byte-identical CSV, request bodies and writer batches.
func makeWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "lookup":
		w := lookupWorkload(seed, lookupReaders, lookupWriters)
		w.Name = name
		w.Why = "point lookups: per-request fixed costs dominate, the plan cache always hits"
		return w, nil
	case "rw":
		w := lookupWorkload(seed, rwReaders, rwWriters)
		w.Name = name
		w.Why = "point lookups beside a paced writer: every write invalidates the plan cache"
		w.Writer = true
		return w, nil
	case "analytic":
		return analyticWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want lookup, analytic or rw)", name)
}

func lookupWorkload(seed int64, readers, writers int) *workload {
	r := rand.New(rand.NewSource(seed))
	node := func(i int) string {
		if i < readers {
			return "r" + strconv.Itoa(i)
		}
		return "w" + strconv.Itoa(i-readers)
	}
	edges := make(map[[2]int]bool)
	var csv bytes.Buffer
	rows := 0
	region := func(lo, n int) {
		for u := lo; u < lo+n; u++ {
			for k := 0; k < lookupOutDeg; k++ {
				v := lo + r.Intn(n)
				if edges[[2]int{u, v}] {
					continue
				}
				edges[[2]int{u, v}] = true
				fmt.Fprintf(&csv, "%s,%s\n", node(u), node(v))
				rows++
			}
		}
	}
	region(0, readers)
	region(readers, writers)

	w := &workload{
		Seed:       seed,
		Rels:       []relData{{Name: "E", CSV: csv.Bytes(), Rows: rows}},
		Reads:      lookupReads,
		Views:      standingViews,
		Nodes:      readers + writers,
		StringKeys: true,
	}
	// Keys follow a Zipf law over reader nodes; a seeded permutation picks
	// which nodes are hot.
	perm := r.Perm(readers)
	z := rand.NewZipf(r, zipfS, 1, uint64(readers-1))
	for i := 0; i < seqLen; i++ {
		si := r.Intn(len(lookupReads))
		key := node(perm[z.Uint64()])
		w.Seq = append(w.Seq, req{Stmt: si, Key: key,
			Body: []byte(`{"params":{"src":"` + key + `"}}`)})
	}
	w.Batches = makeBatches(r, edges, readers, writers, node)
	return w
}

func analyticWorkload(seed int64) *workload {
	r := rand.New(rand.NewSource(seed))
	node := strconv.Itoa
	edges := make(map[[2]int]bool)
	var e bytes.Buffer
	eRows := 0
	add := func(u, v int) {
		if !edges[[2]int{u, v}] {
			edges[[2]int{u, v}] = true
			fmt.Fprintf(&e, "%d,%d\n", u, v)
			eRows++
		}
	}
	for u := 0; u < analyticNodes; u++ {
		base := u / analyticGroup * analyticGroup
		for k := 0; k < analyticIntra; k++ {
			add(u, base+r.Intn(analyticGroup))
		}
		for k := 0; k < analyticInter; k++ {
			add(u, r.Intn(analyticNodes))
		}
	}
	hub := make(map[[2]int]bool)
	var h bytes.Buffer
	hRows := 0
	addH := func(u, v int) {
		if !hub[[2]int{u, v}] {
			hub[[2]int{u, v}] = true
			fmt.Fprintf(&h, "%d,%d\n", u, v)
			hRows++
		}
	}
	for i := 0; i < hubLeaves; i++ {
		c := r.Intn(hubCount)
		addH(c, hubCount+i)
		addH(hubCount+i, c)
	}
	for i := 0; i < hubCross; i++ {
		addH(hubCount+r.Intn(hubLeaves), hubCount+r.Intn(hubLeaves))
	}

	w := &workload{
		Name: "analytic",
		Why:  "full-result scans: engine passes, relation kernels and row rendering dominate",
		Seed: seed,
		Rels: []relData{
			{Name: "E", CSV: e.Bytes(), Rows: eRows},
			{Name: "H", CSV: h.Bytes(), Rows: hRows},
		},
		Reads: analyticReads,
		Views: standingViews,
		Nodes: analyticNodes,
	}
	// A fixed seeded rotation: each round visits every statement once in
	// a fresh seeded order.
	for len(w.Seq) < seqLen {
		for _, si := range r.Perm(len(analyticReads)) {
			w.Seq = append(w.Seq, req{Stmt: si, Body: []byte(`{}`)})
		}
	}
	w.Seq = w.Seq[:seqLen]
	w.Batches = makeBatches(r, edges, 0, analyticNodes, node)
	return w
}

// makeBatches draws nBatches disjoint batches of edges between nodes
// lo..lo+n-1 that are absent from the base data, so every insert adds
// exactly batchSize rows and the matching delete removes them again.
func makeBatches(r *rand.Rand, edges map[[2]int]bool, lo, n int, node func(int) string) [][][2]string {
	used := make(map[[2]int]bool)
	out := make([][][2]string, nBatches)
	for b := range out {
		for len(out[b]) < batchSize {
			e := [2]int{lo + r.Intn(n), lo + r.Intn(n)}
			if edges[e] || used[e] {
				continue
			}
			used[e] = true
			out[b] = append(out[b], [2]string{node(e[0]), node(e[1])})
		}
	}
	return out
}

// batchBody renders a writer batch as a /rel/E/insert or /delete body.
// Lookup nodes are strings on the wire; analytic nodes are JSON integers.
func (w *workload) batchBody(b int) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"rows":[`)
	for i, e := range w.Batches[b%len(w.Batches)] {
		if i > 0 {
			buf.WriteByte(',')
		}
		if w.StringKeys {
			fmt.Fprintf(&buf, `["%s","%s"]`, e[0], e[1])
		} else {
			fmt.Fprintf(&buf, `[%s,%s]`, e[0], e[1])
		}
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}

// stmts lists every statement the workload registers at setup: the reads,
// plus the standing views when a writer maintains them inside the window.
func (w *workload) setupStmts() []stmt {
	if w.Writer {
		return append(append([]stmt(nil), w.Reads...), w.Views...)
	}
	return w.Reads
}
