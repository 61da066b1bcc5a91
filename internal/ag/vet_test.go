package ag

import (
	"strings"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/value"
)

// countComp is a minimal canonical component: out counts modulo 2.
func countComp(name, out string) *spec.Component {
	inc := form.Eq(form.PrimedVar(out), form.Mod(form.Add(form.Var(out), form.IntC(1)), form.IntC(2)))
	return &spec.Component{
		Name:    name,
		Outputs: []string{out},
		Init:    form.Eq(form.Var(out), form.IntC(0)),
		Actions: []spec.Action{{Name: "Inc", Def: inc}},
	}
}

func vetTheorem() *Theorem {
	return &Theorem{
		Name:  "vet-demo",
		Pairs: []Pair{{Name: "P", Sys: countComp("low", "x")}},
		Concl: Conclusion{Sys: countComp("high", "x")},
	}
}

func TestTheoremVet(t *testing.T) {
	th := vetTheorem()
	if res := th.Vet(); res.HasErrors() {
		t.Errorf("clean theorem has vet errors:\n%s", res)
	}
	if err := th.validate(); err != nil {
		t.Errorf("clean theorem rejected: %v", err)
	}

	// A guarantee writing its own input is not in canonical form: the
	// analyzer reports SV002 and validate refuses the instance.
	bad := vetTheorem()
	bad.Pairs[0].Sys.Inputs = []string{"d"}
	bad.Pairs[0].Sys.Actions = append(bad.Pairs[0].Sys.Actions, spec.Action{
		Name: "Rogue", Def: form.Eq(form.PrimedVar("d"), form.IntC(1)),
	})
	res := bad.Vet()
	if !res.HasErrors() {
		t.Fatalf("input-writing theorem has no vet errors:\n%s", res)
	}
	err := bad.validate()
	if err == nil {
		t.Fatal("validate accepted an input-writing guarantee")
	}
	if !strings.Contains(err.Error(), "canonical form") || !strings.Contains(err.Error(), "SV002") {
		t.Errorf("validate error = %v", err)
	}
}

func TestTheoremVetDedupesByName(t *testing.T) {
	// The same component used as a pair's Env and the conclusion's Env is
	// analyzed once: its diagnostics appear once, not twice.
	env := stays0("env", "e")
	env.Inputs = []string{"spare"} // never referenced → one SV060
	th := &Theorem{
		Name:  "dedup",
		Pairs: []Pair{{Name: "P", Env: env, Sys: countComp("low", "x")}},
		Concl: Conclusion{Env: env, Sys: countComp("high", "x")},
	}
	n := 0
	for _, d := range th.Vet().Diagnostics {
		if d.Code == "SV060" && d.Component == "env" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("shared env analyzed %d times, want 1", n)
	}
}

// TestRefinementVet: a refinement is the one-pair theorem with the
// low-level guarantee as its pair and the high-level one as its
// conclusion. It vets clean, and an undeclared write in the low-level
// guarantee is reported against that component.
func TestRefinementVet(t *testing.T) {
	th := &Theorem{
		Name:  "ref-demo",
		Pairs: []Pair{{Name: "low", Sys: countComp("low", "x")}},
		Concl: Conclusion{Sys: countComp("high", "x")},
	}
	if res := th.Vet(); res.HasErrors() {
		t.Errorf("clean refinement has vet errors:\n%s", res)
	}
	th.Pairs[0].Sys.Actions[0].Def = form.Eq(form.PrimedVar("ghost"), form.IntC(1))
	res := th.Vet()
	found := false
	for _, d := range res.Diagnostics {
		if d.Code == "SV001" && d.Component == "low" {
			found = true
		}
	}
	if !found {
		t.Errorf("undeclared write not reported:\n%s", res)
	}
}

// TestVetOncePerInstance holds Check to one analysis per theorem instance:
// a vetted instance's check reuses the Vet result's verdict, an instance
// nobody vetted is analyzed by its check, and a vetted instance with error
// findings is still refused.
func TestVetOncePerInstance(t *testing.T) {
	mk := func() *Theorem {
		th := vetTheorem()
		th.Domains = map[string][]value.Value{"x": value.Ints(0, 1), "d": value.Ints(0, 1)}
		return th
	}
	check := func(th *Theorem) error {
		_, err := th.Check()
		return err
	}
	var err error
	if n := CountAnalyses(func() {
		th := mk()
		th.Vet()
		err = check(th)
	}); n != 1 || err != nil {
		t.Errorf("vetted then checked: %d analyses (want 1), error %v", n, err)
	}
	if n := CountAnalyses(func() { err = check(mk()) }); n != 1 || err != nil {
		t.Errorf("checked without vetting: %d analyses (want 1), error %v", n, err)
	}
	if n := CountAnalyses(func() {
		bad := mk()
		bad.Pairs[0].Sys.Inputs = []string{"d"}
		bad.Pairs[0].Sys.Actions = append(bad.Pairs[0].Sys.Actions, spec.Action{
			Name: "Rogue", Def: form.Eq(form.PrimedVar("d"), form.IntC(1)),
		})
		bad.Vet()
		err = check(bad)
	}); n != 1 || err == nil || !strings.Contains(err.Error(), "SV002") {
		t.Errorf("vetted ill-formed theorem: %d analyses (want 1), error %v (want the SV002 refusal)", n, err)
	}
}
