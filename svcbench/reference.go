package main

import (
	"bytes"
	"fmt"
	"sort"

	"pyquery"
	"pyquery/internal/parser"
)

// A reference is the independent evaluation the correctness gate compares
// against: a separately loaded copy of the data with its own symbol table,
// evaluated from scratch (no plan cache) and serially.
type reference struct {
	db   *pyquery.DB
	syms *pyquery.Symbols
	prs  *pyquery.Parser
	memo map[string]int
}

func newReference(w *workload) (*reference, error) {
	syms := parser.NewSymbols()
	r := &reference{db: pyquery.NewDB(), syms: syms, prs: parser.NewWithSymbols(syms), memo: make(map[string]int)}
	for _, rel := range w.Rels {
		if err := pyquery.LoadCSV(r.db, rel.Name, bytes.NewReader(rel.CSV), r.syms); err != nil {
			return nil, fmt.Errorf("reference load %s: %w", rel.Name, err)
		}
	}
	return r, nil
}

var refOpts = pyquery.Options{NoCache: true, Parallelism: 1}

// eval evaluates st, binding $src to key for point statements.
func (r *reference) eval(st stmt, key string) (*pyquery.Relation, error) {
	q, err := r.prs.ParseCQ(st.Src)
	if err != nil {
		return nil, fmt.Errorf("reference parse %s: %w", st.Name, err)
	}
	if st.Point {
		v, err := r.syms.Literal(key)
		if err != nil {
			return nil, err
		}
		if q, err = q.BindParams(map[string]pyquery.Value{"src": v}); err != nil {
			return nil, fmt.Errorf("reference bind %s: %w", st.Name, err)
		}
	}
	res, err := pyquery.EvaluateOpts(q, r.db, refOpts)
	if err != nil {
		return nil, fmt.Errorf("reference eval %s: %w", st.Name, err)
	}
	return res, nil
}

// rows renders st's reference answer as sorted rows in the wire's
// rendering: symbols by name, integers in decimal.
func (r *reference) rows(st stmt, key string) ([]string, error) {
	res, err := r.eval(st, key)
	if err != nil {
		return nil, err
	}
	out := make([]string, res.Len())
	buf := make([]pyquery.Value, res.Width())
	parts := make([]string, res.Width())
	for i := range out {
		for j, v := range res.RowTo(buf, i) {
			parts[j] = r.syms.String(v)
		}
		out[i] = joinRow(parts)
	}
	sort.Strings(out)
	return out, nil
}

// count is st's answer size for key, memoized.
func (r *reference) count(st stmt, key string) (int, error) {
	mk := st.Name + "\x00" + key
	if n, ok := r.memo[mk]; ok {
		return n, nil
	}
	res, err := r.eval(st, key)
	if err != nil {
		return 0, err
	}
	r.memo[mk] = res.Len()
	return res.Len(), nil
}

// seqCounts returns the expected "n" of every request in the sequence.
func (r *reference) seqCounts(w *workload) ([]int32, error) {
	out := make([]int32, len(w.Seq))
	for i, rq := range w.Seq {
		n, err := r.count(w.Reads[rq.Stmt], rq.Key)
		if err != nil {
			return nil, err
		}
		out[i] = int32(n)
	}
	return out, nil
}

// sameRows reports whether got and want (sorted) hold the same set of
// rows, with a short description of the first difference.
func sameRows(got, want []string) (bool, string) {
	got = append([]string(nil), got...)
	sort.Strings(got)
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return false, fmt.Sprintf("row %q, want %q", got[i], want[i])
		}
	}
	return true, ""
}
