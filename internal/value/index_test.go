package value_test

import (
	"testing"

	"opentla/internal/models"
	"opentla/internal/queue"
	"opentla/internal/value"
)

// TestIndexMatchesScan holds the fingerprint index to the linear scan on
// every domain of the model registry and of Fig. 9 at N=2 K=4 (whose
// abstract q has 1365 values), asking for every value of every one of
// those domains, so each domain also meets values outside it, and for a
// few values no domain has.
func TestIndexMatchesScan(t *testing.T) {
	var doms []map[string][]value.Value
	for _, m := range models.All() {
		doms = append(doms, m.Domains)
	}
	doms = append(doms, queue.Config{N: 2, Vals: 4}.Fig9Theorem().Domains)
	queries := []value.Value{value.Int(-7), value.Str("x"), value.True, value.Tuple(value.Empty), value.Tuple(value.Int(0), value.Str("0"))}
	for _, ds := range doms {
		for _, dom := range ds {
			queries = append(queries, dom...)
		}
	}
	for i, ds := range doms {
		for name, dom := range ds {
			scan, hashed := value.ScanAndHash(dom)
			built := value.NewIndex(dom)
			in := 0
			for _, q := range queries {
				want := scan.IndexOf(q)
				if got := hashed.IndexOf(q); got != want {
					t.Fatalf("domain set %d, %s: index places %s at %d, the scan at %d", i, name, q, got, want)
				}
				if got := built.IndexOf(q); got != want || built.Has(q) != (want >= 0) {
					t.Fatalf("domain set %d, %s: NewIndex places %s at %d, the scan at %d", i, name, q, got, want)
				}
				if want >= 0 {
					if !dom[want].Equal(q) {
						t.Fatalf("domain set %d, %s: %s placed at %d, which holds %s", i, name, q, want, dom[want])
					}
					in++
				}
			}
			if in < len(dom) || in == len(queries) {
				t.Fatalf("domain set %d, %s: %d of %d queries inside a domain of %d", i, name, in, len(queries), len(dom))
			}
		}
	}
}

// BenchmarkIndex times membership by scan and by fingerprint index over
// integer and sequence domains of growing size, asking for every member
// once and for as many values outside; linearIndexMax is where the index
// starts to win.
func BenchmarkIndex(b *testing.B) {
	doms := []struct {
		name string
		dom  []value.Value
	}{
		{"ints-2", value.Ints(0, 1)},
		{"ints-4", value.Ints(0, 3)},
		{"ints-8", value.Ints(0, 7)},
		{"ints-16", value.Ints(0, 15)},
		{"ints-64", value.Ints(0, 63)},
		{"seqs-3", value.Seqs(value.Bits(), 1)},
		{"seqs-7", value.Seqs(value.Bits(), 2)},
		{"seqs-13", value.Seqs(value.Ints(0, 2), 2)},
		{"seqs-21", value.Seqs(value.Ints(0, 3), 2)},
		{"seqs-40", value.Seqs(value.Ints(0, 2), 3)},
		{"seqs-1365", value.Seqs(value.Ints(0, 3), 5)},
	}
	for _, d := range doms {
		queries := append([]value.Value(nil), d.dom...)
		for _, v := range d.dom {
			out, _ := v.Append(value.Int(9))
			if v.Kind() != value.KindTuple {
				out = value.Int(-1 - int64(len(queries)))
			}
			queries = append(queries, out)
		}
		scan, hashed := value.ScanAndHash(d.dom)
		for _, m := range []struct {
			name string
			x    *value.Index
		}{{"scan", scan}, {"index", hashed}} {
			b.Run(d.name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						m.x.Has(q)
					}
				}
			})
		}
	}
}
