package vet

import (
	"strings"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
)

func TestPartitionDiagnostics(t *testing.T) {
	cases := []struct {
		name  string
		comp  *spec.Component
		want  string
		inMsg string
	}{
		{"clean", clean(), "", ""},
		{"cross-class-dup", &spec.Component{Name: "d",
			Inputs: []string{"x"}, Outputs: []string{"x"}},
			"SV010", `declared as both input and output`},
		{"same-class-dup", &spec.Component{Name: "d",
			Outputs: []string{"y", "y"}},
			"SV010", `declared twice as output`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Component(tc.comp)
			if tc.want == "" {
				if hasCode(res, "SV010") {
					t.Errorf("unexpected SV010:\n%s", res)
				}
				return
			}
			d := diag(t, res, tc.want)
			if !strings.Contains(d.Message, tc.inMsg) {
				t.Errorf("message %q missing %q", d.Message, tc.inMsg)
			}
		})
	}
}

// writer returns a component whose action assigns each named variable.
func writer(name string, outputs, inputs []string, writes ...string) *spec.Component {
	var conj []form.Expr
	for _, v := range writes {
		conj = append(conj, form.Eq(form.PrimedVar(v), form.IntC(1)))
	}
	declared := map[string]bool{}
	for _, v := range outputs {
		declared[v] = true
	}
	for _, v := range inputs {
		declared[v] = true
	}
	return &spec.Component{
		Name:    name,
		Inputs:  inputs,
		Outputs: outputs,
		Actions: []spec.Action{{Name: "Go", Def: form.And(conj...)}},
	}
}

func TestOwnershipDiagnostics(t *testing.T) {
	t.Run("clean-pair", func(t *testing.T) {
		a := writer("a", []string{"x"}, []string{"y"}, "x")
		b := writer("b", []string{"y"}, []string{"x"}, "y")
		res := Composition("sys", []*spec.Component{a, b}, nil, Options{})
		if hasCode(res, "SV011") || hasCode(res, "SV003") {
			t.Errorf("clean pair flagged:\n%s", res)
		}
	})
	t.Run("double-ownership", func(t *testing.T) {
		a := writer("a", []string{"x"}, nil, "x")
		b := writer("b", []string{"x"}, nil, "x")
		res := Composition("sys", []*spec.Component{a, b}, nil, Options{})
		d := diag(t, res, "SV011")
		if d.Component != "b" || !strings.Contains(d.Message, `owned by component a`) {
			t.Errorf("SV011 = %+v", d)
		}
	})
	t.Run("cross-write", func(t *testing.T) {
		// a writes y without declaring it; b owns y. The per-component pass
		// reports the undeclared mention (SV001) and the composition pass
		// the ownership violation (SV003).
		a := writer("a", []string{"x"}, nil, "x", "y")
		b := writer("b", []string{"y"}, nil, "y")
		res := Composition("sys", []*spec.Component{a, b}, nil, Options{})
		if !hasCode(res, "SV001") {
			t.Errorf("missing SV001:\n%s", res)
		}
		d := diag(t, res, "SV003")
		if d.Component != "a" || d.Action != "Go" || !strings.Contains(d.Message, `owned by component b`) {
			t.Errorf("SV003 = %+v", d)
		}
	})
	t.Run("input-write-is-sv002-not-sv003", func(t *testing.T) {
		// a declares y as an input and writes it: that is the component-level
		// SV002, not repeated as SV003.
		a := writer("a", []string{"x"}, []string{"y"}, "x", "y")
		b := writer("b", []string{"y"}, nil, "y")
		res := Composition("sys", []*spec.Component{a, b}, nil, Options{})
		if !hasCode(res, "SV002") {
			t.Errorf("missing SV002:\n%s", res)
		}
		if hasCode(res, "SV003") {
			t.Errorf("SV003 double-reports an input write:\n%s", res)
		}
	})
}
