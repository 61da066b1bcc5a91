// Package spec represents component specifications in the canonical form of
// Abadi & Lamport, "Open Systems in TLA" §2.2:
//
//	∃x : Init ∧ □[N]_⟨m,x⟩ ∧ L
//
// where m is the tuple of output variables, x the internal variables, e the
// input variables, N the next-state action (a disjunction of named actions),
// and L a conjunction of fairness conditions.
//
// The formula is the component's only encoding: the explicit-state model
// checker (package ts) derives successors from each action's definition.
package spec

import (
	"fmt"

	"opentla/internal/form"
)

// Action is a named next-state disjunct.
type Action struct {
	Name string
	// Def is the declarative TLA definition of the action, from which the
	// model checker derives its successors. It must not be nil.
	Def form.Expr
}

// Fairness is one WF/SF conjunct of the liveness part L.
type Fairness struct {
	Kind form.FairKind
	// Action is the fair action A in WF_v(A)/SF_v(A).
	Action form.Expr
	// Sub is the subscript state function v; nil means the component's
	// ⟨outputs, internals⟩ tuple, the usual choice (§2.2).
	Sub form.Expr
}

// Component is a component specification in canonical form.
type Component struct {
	Name string
	// Inputs e, Outputs m, and Internals x partition the variables the
	// component's next-state action may constrain. Outputs and internals
	// are "owned": only this component's actions change them.
	Inputs    []string
	Outputs   []string
	Internals []string
	// Init is the initial predicate. Following the paper's convention for
	// channels (§A.2), Init may also mention variables the component does
	// not own.
	Init form.Expr
	// Actions are the disjuncts of the next-state action N.
	Actions []Action
	// Fairness is the liveness part L.
	Fairness []Fairness
}

// Owned returns the variables the component owns: outputs then internals.
func (c *Component) Owned() []string {
	out := make([]string, 0, len(c.Outputs)+len(c.Internals))
	out = append(out, c.Outputs...)
	out = append(out, c.Internals...)
	return out
}

// Vars returns all declared variables of the component: inputs, outputs,
// internals.
func (c *Component) Vars() []string {
	out := make([]string, 0, len(c.Inputs)+len(c.Outputs)+len(c.Internals))
	out = append(out, c.Inputs...)
	out = append(out, c.Outputs...)
	out = append(out, c.Internals...)
	return out
}

// SubTuple returns the canonical subscript ⟨m, x⟩ as a tuple expression.
func (c *Component) SubTuple() form.Expr { return form.VarTuple(c.Owned()...) }

// Next returns the next-state action N: the disjunction of the action
// definitions.
func (c *Component) Next() form.Expr {
	xs := make([]form.Expr, len(c.Actions))
	for i, a := range c.Actions {
		xs[i] = a.Def
	}
	return form.Or(xs...)
}

// Box returns □[N]_⟨m,x⟩ as a formula.
func (c *Component) Box() form.Formula { return form.ActBox(c.Next(), c.SubTuple()) }

// SafetyFormula returns the safety part Init ∧ □[N]_⟨m,x⟩ with internal
// variables visible. By Proposition 1 this is the closure of InnerFormula.
func (c *Component) SafetyFormula() form.Formula {
	return form.AndF(form.Pred(c.Init), c.Box())
}

// FairnessFormula returns the liveness part L (TRUE if no fairness).
func (c *Component) FairnessFormula() form.Formula {
	fs := make([]form.Formula, len(c.Fairness))
	for i, fc := range c.Fairness {
		sub := fc.Sub
		if sub == nil {
			sub = c.SubTuple()
		}
		if fc.Kind == form.Weak {
			fs[i] = form.WF(sub, fc.Action)
		} else {
			fs[i] = form.SF(sub, fc.Action)
		}
	}
	return form.AndF(fs...)
}

// InnerFormula returns Init ∧ □[N]_⟨m,x⟩ ∧ L with internals visible — the
// paper's "I" formulas (e.g. IQM in §A.3).
func (c *Component) InnerFormula() form.Formula {
	if len(c.Fairness) == 0 {
		return c.SafetyFormula()
	}
	return form.AndF(form.Pred(c.Init), c.Box(), c.FairnessFormula())
}

// Formula returns the full canonical specification ∃x : Init ∧ □[N]_v ∧ L.
func (c *Component) Formula() form.Formula {
	return form.ExistsF(c.Internals, c.InnerFormula())
}

// SquareExpr returns [N]_⟨m,x⟩ as an action expression — the per-step
// constraint of the component's safety part.
func (c *Component) SquareExpr() form.Expr {
	return form.Square(c.Next(), c.SubTuple())
}

// SafetyOnly returns a copy of the component with the fairness conditions
// removed. By Proposition 1, its InnerFormula is the closure C of the
// original's (machine-closed) InnerFormula.
func (c *Component) SafetyOnly() *Component {
	cp := *c
	cp.Fairness = nil
	return &cp
}

// DuplicateVarError reports a variable declared more than once across (or
// within) a component's Inputs, Outputs, and Internals lists — a broken
// partition that would make "owned" ambiguous (§2.2).
type DuplicateVarError struct {
	// Component is the component's name.
	Component string
	// Var is the doubly-declared variable.
	Var string
	// First and Second are the classes ("input", "output", "internal") of
	// the two declarations; they are equal when the same list repeats the
	// variable.
	First, Second string
}

func (e *DuplicateVarError) Error() string {
	if e.First == e.Second {
		return fmt.Sprintf("component %s: variable %q declared twice as %s", e.Component, e.Var, e.First)
	}
	return fmt.Sprintf("component %s: variable %q declared as both %s and %s", e.Component, e.Var, e.First, e.Second)
}

// New validates c and returns it, so construction sites can reject
// ill-formed components (duplicate declarations, undeclared action
// variables, primed Init) before any checking begins. The returned pointer
// is c itself; no copy is made.
func New(c *Component) (*Component, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks structural well-formedness: variable classes are
// disjoint, every action has a definition mentioning only declared
// variables, and Init primes nothing. Duplicate declarations are reported
// as a *DuplicateVarError.
func (c *Component) Validate() error {
	seen := make(map[string]string)
	add := func(class string, names []string) error {
		for _, n := range names {
			if prev, dup := seen[n]; dup {
				return &DuplicateVarError{Component: c.Name, Var: n, First: prev, Second: class}
			}
			seen[n] = class
		}
		return nil
	}
	if err := add("input", c.Inputs); err != nil {
		return err
	}
	if err := add("output", c.Outputs); err != nil {
		return err
	}
	if err := add("internal", c.Internals); err != nil {
		return err
	}
	declared := make(map[string]bool, len(seen))
	for n := range seen {
		declared[n] = true
	}
	for _, a := range c.Actions {
		if a.Def == nil {
			return fmt.Errorf("component %s: action %s has no definition", c.Name, a.Name)
		}
		for _, v := range form.AllVars(a.Def) {
			if !declared[v] {
				return fmt.Errorf("component %s: action %s mentions undeclared variable %q", c.Name, a.Name, v)
			}
		}
	}
	if c.Init != nil {
		if prm := form.PrimedVars(c.Init); len(prm) > 0 {
			return fmt.Errorf("component %s: Init primes variables %v", c.Name, prm)
		}
	}
	return nil
}

// Rename returns a copy of the component with variables renamed according
// to m, implementing the paper's substitution F[z/o, q1/q] (§A.4) at the
// component level. Variables absent from m keep their names; the component
// is also given the new name.
func (c *Component) Rename(name string, m map[string]string) *Component {
	fwd := func(n string) string {
		if r, ok := m[n]; ok {
			return r
		}
		return n
	}
	renameList := func(ns []string) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = fwd(n)
		}
		return out
	}
	actions := make([]Action, len(c.Actions))
	for i, a := range c.Actions {
		actions[i] = Action{Name: a.Name, Def: form.Rename(a.Def, m)}
	}
	fair := make([]Fairness, len(c.Fairness))
	for i, fc := range c.Fairness {
		nf := Fairness{Kind: fc.Kind, Action: form.Rename(fc.Action, m)}
		if fc.Sub != nil {
			nf.Sub = form.Rename(fc.Sub, m)
		}
		fair[i] = nf
	}
	var init form.Expr
	if c.Init != nil {
		init = form.Rename(c.Init, m)
	}
	return &Component{
		Name:      name,
		Inputs:    renameList(c.Inputs),
		Outputs:   renameList(c.Outputs),
		Internals: renameList(c.Internals),
		Init:      init,
		Actions:   actions,
		Fairness:  fair,
	}
}
