package ts_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/cache"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/state"
	"opentla/internal/store"
	"opentla/internal/ts"
)

// guaranteesOnly returns the system ⋀C(M_j) of th with the environment
// variables unconstrained: the base graph of hypothesis 2a.
func guaranteesOnly(th *ag.Theorem) *ts.System {
	sys := &ts.System{Name: "guarantees-only", Domains: th.Domains}
	for _, p := range th.Pairs {
		if p.Sys != nil {
			sys.Components = append(sys.Components, p.Sys.SafetyOnly())
		}
		sys.Constraints = append(sys.Constraints, p.Constraints...)
	}
	return sys
}

// TestProductMatchesReference holds the positional monitor product to the
// map-based product it replaced (ts.RefProduct) on the products the checks
// build over Fig. 9's guarantees-only graph: the +v product of H2a-B, the
// two-monitor product of check.WhilePlus (safety monitors for C(E) and for
// C(M) under the refinement mapping), and a product of two +v monitors
// that each allow two values. Each is built unreduced
// and under symmetry, for K = 2 and 3, by 1 and 4 workers, and must equal
// the reference in states, fingerprints, initial ids, CSR adjacency and
// real successors.
func TestProductMatchesReference(t *testing.T) {
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		th := cfg.Fig9Theorem()
		env, target, mapping := th.Concl.Env, th.Concl.Sys, th.Concl.Mapping
		envInit, envSquares := env.Init, []form.Expr{env.SquareExpr()}
		sysInit, sysSquares := target.Init.Subst(mapping), []form.Expr{target.SquareExpr().Subst(mapping)}
		products := []struct {
			name string
			mons func() []*ts.Monitor
		}{
			{"plus", func() []*ts.Monitor {
				return []*ts.Monitor{ts.PlusMonitor("$plusAlive", envInit, envSquares, th.Concl.PlusSub)}
			}},
			{"while-plus", func() []*ts.Monitor {
				return []*ts.Monitor{
					ts.SafetyMonitor("$envAlive", envInit, envSquares),
					ts.SafetyMonitor("$sysAlive", sysInit, sysSquares),
				}
			}},
			// Safety monitors allow one value per step; two +v monitors
			// on distinct variables may each die early, so each allows
			// two and the combination order shows.
			{"two-nondeterministic", func() []*ts.Monitor {
				return []*ts.Monitor{
					ts.PlusMonitor("$plusAlive", envInit, envSquares, th.Concl.PlusSub),
					ts.PlusMonitor("$sysPlus", sysInit, sysSquares, th.Concl.PlusSub),
				}
			}},
		}
		for _, sym := range []bool{false, true} {
			sys := guaranteesOnly(th)
			if sym {
				sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}
			}
			g, err := sys.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range products {
				t.Run(fmt.Sprintf("K=%d/sym=%v/%s", k, sym, p.name), func(t *testing.T) {
					sys.Workers = 1
					want, err := ts.RefProduct(g, p.mons())
					if err != nil {
						t.Fatal(err)
					}
					if sym && want.NumStates() == 0 {
						t.Fatal("empty reference product")
					}
					for _, workers := range []int{1, 4} {
						sys.Workers = workers
						got, err := ts.Product(g, p.mons())
						if err != nil {
							t.Fatal(err)
						}
						if err := ts.DiffGraphs(got, want); err != nil {
							t.Errorf("-workers %d: %v", workers, err)
						}
					}
				})
			}
		}
	}
}

// TestProductOverReloadedGraph builds the +v product over Fig. 9's
// guarantees-only graph reloaded from its snapshot, whose ID table is
// interned lazily by the first ID call, at 1 and 4 workers, so under -race
// the product workers' first calls race. It must equal the product over the
// built graph, which resolves ids through the explore's own store. Then
// several goroutines resolve every state of a fresh reload at once.
func TestProductOverReloadedGraph(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	th := cfg.Fig9Theorem()
	env := th.Concl.Env
	mons := func() []*ts.Monitor {
		return []*ts.Monitor{ts.PlusMonitor("$plusAlive", env.Init, []form.Expr{env.SquareExpr()}, th.Concl.PlusSub)}
	}
	for _, sym := range []bool{false, true} {
		sys := guaranteesOnly(th)
		if sym {
			sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}
		}
		g, err := sys.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			sys.Workers = workers
			want, err := ts.Product(g, mons())
			if err != nil {
				t.Fatal(err)
			}
			got, err := ts.Product(ts.Reload(g), mons())
			if err != nil {
				t.Fatal(err)
			}
			if err := ts.DiffGraphs(got, want); err != nil {
				t.Errorf("sym=%v -workers %d: %v", sym, workers, err)
			}
		}
		r := ts.Reload(g)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id, s := range g.States {
					if got := r.ID(s); got != id {
						t.Errorf("sym=%v: reloaded ID of state %d = %d", sym, id, got)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestNumberingIgnoresStoreHash builds Fig. 9's guarantees-only graph and
// its +v product, unreduced and under symmetry, by 1 and 4 workers, with the
// store interning by degenerate hashes: a constant one, so every state
// shares one bucket of one shard, and the complemented fingerprint, so the
// shards run in the reverse of the barrier's partition order. Each graph
// must equal the one built with the default row hash: the store's hash
// decides only where a state is kept, never its number.
func TestNumberingIgnoresStoreHash(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	th := cfg.Fig9Theorem()
	env := th.Concl.Env
	mons := func() []*ts.Monitor {
		return []*ts.Monitor{ts.PlusMonitor("$plusAlive", env.Init, []form.Expr{env.SquareExpr()}, th.Concl.PlusSub)}
	}
	build := func(sym bool, workers int) (*ts.Graph, *ts.Graph) {
		t.Helper()
		sys := guaranteesOnly(th)
		sys.Workers = workers
		if sym {
			sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}
		}
		g, err := sys.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := ts.Product(g, mons())
		if err != nil {
			t.Fatal(err)
		}
		return g, p
	}
	hashes := []struct {
		name string
		h    store.Hash
	}{
		{"constant", func(*state.State) uint64 { return 42 }},
		{"reversed", func(s *state.State) uint64 { return ^s.Fingerprint() }},
	}
	for _, sym := range []bool{false, true} {
		wantG, wantP := build(sym, 1)
		for _, hc := range hashes {
			for _, workers := range []int{1, 4} {
				restore := ts.WithStoreHash(hc.h)
				g, p := build(sym, workers)
				restore()
				if err := ts.DiffGraphs(g, wantG); err != nil {
					t.Errorf("sym=%v %s hash -workers %d: guarantees-only graph: %v", sym, hc.name, workers, err)
				}
				if err := ts.DiffGraphs(p, wantP); err != nil {
					t.Errorf("sym=%v %s hash -workers %d: +v product: %v", sym, hc.name, workers, err)
				}
			}
		}
	}
}

// TestProductResumesFromCheckpoint stops the +v product over Fig. 9's K=2
// guarantees-only graph on a state budget, then builds it again on the same
// cache with no budget: the rerun must hit the base graph, resume the
// product from the checkpoint the stopped run saved, and give the one-shot
// product, by DiffGraphs and by the bytes of every snapshot file, at 1 and
// 4 workers.
func TestProductResumesFromCheckpoint(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	th := cfg.Fig9Theorem()
	env := th.Concl.Env
	mons := func() []*ts.Monitor {
		return []*ts.Monitor{ts.PlusMonitor("$plusAlive", env.Init, []form.Expr{env.SquareExpr()}, th.Concl.PlusSub)}
	}
	// product builds the base graph and its product on the cache in dir,
	// under m, and returns the base graph's size and the product.
	product := func(dir string, workers int, m *engine.Meter) (int, *ts.Graph, error) {
		t.Helper()
		c, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c.SetNotify(m.Note)
		sys := guaranteesOnly(th)
		sys.Workers, sys.Cache = workers, c
		g, err := sys.BuildWith(m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ts.Product(g, mons())
		return g.NumStates(), p, err
	}
	files := func(dir, ext string) map[string][]byte {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "*"+ext))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(p)] = data
		}
		return out
	}
	for _, workers := range []int{1, 4} {
		oneShot := t.TempDir()
		base, want, err := product(oneShot, workers, engine.NoLimit())
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		// The base graph fits the budget; the product stops half way.
		stop := engine.Budget{MaxStates: base + want.NumStates()/2}.Meter()
		var be *engine.BudgetError
		if _, _, err := product(dir, workers, stop); !errors.As(err, &be) {
			t.Fatalf("workers=%d: want the product stopped by the budget, got %v", workers, err)
		}
		if n := len(files(dir, ".ckpt")); n != 1 {
			t.Fatalf("workers=%d: stopped product left %d checkpoints, want 1", workers, n)
		}

		m := engine.NoLimit()
		rec := obs.New(m)
		_, got, err := product(dir, workers, m)
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		if st := rec.CacheStats(); st.Hits != 1 || st.Resumes != 1 {
			t.Errorf("workers=%d: rerun cache stats %+v, want the base graph hit and the product resumed", workers, st)
		}
		if err := ts.DiffGraphs(got, want); err != nil {
			t.Errorf("workers=%d: resumed product: %v", workers, err)
		}
		wantFiles, gotFiles := files(oneShot, ".snap"), files(dir, ".snap")
		if len(gotFiles) != 2 || len(wantFiles) != 2 {
			t.Errorf("workers=%d: %d snapshots after the rerun, one-shot %d; want 2 each", workers, len(gotFiles), len(wantFiles))
		}
		for name, data := range wantFiles {
			if !bytes.Equal(gotFiles[name], data) {
				t.Errorf("workers=%d: %s differs from the one-shot cache's", workers, name)
			}
		}
		if n := len(files(dir, ".ckpt")); n != 0 {
			t.Errorf("workers=%d: rerun left %d checkpoints", workers, n)
		}
	}
}
