package form

import (
	"errors"
	"sort"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

// fuzzLayout is the variable layout of FuzzDerivedUpdates: two bits and a
// small integer.
var fuzzLayout = []string{"a", "b", "c"}

func fuzzDomains() map[string][]value.Value {
	return map[string][]value.Value{"a": value.Bits(), "b": value.Bits(), "c": value.Ints(0, 2)}
}

// actionDecoder turns fuzz bytes into a small action over fuzzLayout. It
// reads 0 once the input is exhausted, so every input decodes. The grammar
// covers the shapes the successor compiler classifies — guards, x' = e,
// residual primed constraints, disjunction, and finite ∃ — and only builds
// integer expressions, so no evaluation can fail.
type actionDecoder struct {
	data  []byte
	bound []string // ∃-bound names in scope
}

func (d *actionDecoder) next(n int) int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b) % n
}

func (d *actionDecoder) varName() string { return fuzzLayout[d.next(len(fuzzLayout))] }

// term is a primeless integer expression: a variable, a literal, a bound
// name, or a successor.
func (d *actionDecoder) term() Expr {
	switch d.next(4) {
	case 0:
		return Var(d.varName())
	case 1:
		return IntC(int64(d.next(3)))
	case 2:
		if len(d.bound) > 0 {
			return Var(d.bound[d.next(len(d.bound))])
		}
		return IntC(0)
	default:
		return Add(Var(d.varName()), IntC(1))
	}
}

func (d *actionDecoder) action(depth int) Expr {
	op := d.next(9)
	if depth == 0 {
		op %= 4
	}
	switch op {
	case 0: // guard
		if d.next(2) == 0 {
			return Eq(Var(d.varName()), d.term())
		}
		return Lt(Var(d.varName()), d.term())
	case 1: // determined assignment
		return Eq(PrimedVar(d.varName()), d.term())
	case 2: // residual primed constraint
		switch d.next(3) {
		case 0:
			return Ne(PrimedVar(d.varName()), d.term())
		case 1:
			return Eq(PrimedVar(d.varName()), PrimedVar(d.varName()))
		default:
			return Lt(PrimedVar(d.varName()), d.term())
		}
	case 3:
		return Unchanged(d.varName())
	case 4, 5:
		return And(d.action(depth-1), d.action(depth-1))
	case 6:
		return Or(d.action(depth-1), d.action(depth-1))
	case 7:
		name := []string{"i", "j"}[len(d.bound)%2]
		d.bound = append(d.bound, name)
		body := d.action(depth - 1)
		d.bound = d.bound[:len(d.bound)-1]
		return Exists(name, value.Ints(0, 2), body)
	default:
		return Not(d.action(depth - 1))
	}
}

// bruteUpdates enumerates every assignment to owned over the domains and
// keeps those satisfying a with the other variables unchanged, returning
// the successor keys.
func bruteUpdates(t *testing.T, a Expr, owned []string, domains map[string][]value.Value, s *state.State) []string {
	t.Helper()
	var out []string
	value.ForEachAssignment(owned, domains, func(asgn map[string]value.Value) bool {
		to := s.WithAll(asgn)
		ok, err := EvalBool(a, state.Step{From: s, To: to}, nil)
		if err != nil {
			t.Fatalf("evaluating %s on %s -> %s: %v", a, s, to, err)
		}
		if ok {
			out = append(out, to.Key())
		}
		return true
	})
	sort.Strings(out)
	return out
}

// FuzzDerivedUpdates checks UpdatesFn against brute-force enumeration: for
// a decoded action, owned set and state, the derived candidates must be
// exactly the owned-variable assignments that satisfy the action with every
// other variable unchanged, each listed once. An action past UpdatesFn's
// size caps, which nested ∃s reach quickly, is skipped; any other compile
// error fails.
func FuzzDerivedUpdates(f *testing.F) {
	domains := fuzzDomains()
	ctx := NewCtx(domains)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &actionDecoder{data: data}
		var owned []string
		mask := d.next(8)
		for i, v := range fuzzLayout {
			if mask&(1<<i) != 0 {
				owned = append(owned, v)
			}
		}
		vals := make(map[string]value.Value, len(fuzzLayout))
		for _, v := range fuzzLayout {
			dom := domains[v]
			vals[v] = dom[d.next(len(dom))]
		}
		s := state.New(vals)
		a := d.action(4)

		updates, err := ctx.UpdatesFn(a, fuzzLayout, owned)
		var size *SizeError
		if errors.As(err, &size) {
			t.Skipf("UpdatesFn(%s) refuses for size: %v", a, err)
		}
		if err != nil {
			t.Fatalf("UpdatesFn(%s): %v", a, err)
		}
		var u Updates
		if err := updates(s, &u); err != nil {
			t.Fatalf("updates(%s) on %s: %v", a, s, err)
		}
		var got []string
		for _, c := range u.Cands {
			if len(c) != len(owned) {
				t.Fatalf("%s on %s: update %v does not cover owned %v", a, s, c, owned)
			}
			got = append(got, s.CloneWith(c).Key())
		}
		sort.Strings(got)
		want := bruteUpdates(t, a, owned, domains, s)
		if len(got) != len(want) {
			t.Fatalf("%s owned %v on %s:\n derived %v\n brute   %v", a, owned, s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s owned %v on %s:\n derived %v\n brute   %v", a, owned, s, got, want)
			}
		}
	})
}

// TestUpdatesFnRejectsOversizedEnumeration: an action leaving more owned
// assignments undetermined than the enumeration limit is a compile error,
// not a silent grind.
func TestUpdatesFnRejectsOversizedEnumeration(t *testing.T) {
	domains := map[string][]value.Value{}
	var owned []string
	for _, v := range []string{"p", "q", "r", "s", "t", "u", "v"} {
		domains[v] = value.Ints(0, 9)
		owned = append(owned, v)
	}
	_, err := NewCtx(domains).UpdatesFn(TrueE, owned, owned)
	var size *SizeError
	if !errors.As(err, &size) {
		t.Fatalf("10^7 undetermined assignments should be rejected with a *SizeError, got %v", err)
	}
}
