package vet

import (
	"encoding/json"
	"strings"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
)

// codesOf returns the diagnostic codes of a result, in order.
func codesOf(r *Result) []string {
	out := make([]string, len(r.Diagnostics))
	for i, d := range r.Diagnostics {
		out[i] = d.Code
	}
	return out
}

// hasCode reports whether the result contains a diagnostic with the code.
func hasCode(r *Result, code string) bool {
	for _, d := range r.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

// diag returns the first diagnostic with the code, failing the test if absent.
func diag(t *testing.T, r *Result, code string) Diagnostic {
	t.Helper()
	for _, d := range r.Diagnostics {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("no %s diagnostic; got %v\n%s", code, codesOf(r), r)
	return Diagnostic{}
}

// clean is a well-formed two-variable component used as the negative case
// throughout: output x counts modulo 3, input d is read but never written.
func clean() *spec.Component {
	inc := form.And(
		form.Eq(form.PrimedVar("x"), form.Mod(form.Add(form.Var("x"), form.Var("d")), form.IntC(3))),
		form.Unchanged("h"),
	)
	return &spec.Component{
		Name:      "clean",
		Inputs:    []string{"d"},
		Outputs:   []string{"x"},
		Internals: []string{"h"},
		Init:      form.And(form.Eq(form.Var("x"), form.IntC(0)), form.Eq(form.Var("h"), form.IntC(0))),
		Actions:   []spec.Action{{Name: "Inc", Def: inc}},
		Fairness:  []spec.Fairness{{Kind: form.Weak, Action: inc}},
	}
}

func TestCleanComponentHasNoFindings(t *testing.T) {
	res := Component(clean())
	if len(res.Diagnostics) != 0 {
		t.Errorf("clean component produced diagnostics:\n%s", res)
	}
}

func TestSeverityJSON(t *testing.T) {
	for _, s := range []Severity{Info, Warn, Error} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %v: %v", s, err)
		}
		var back Severity
		if err := json.Unmarshal(data, &back); err != nil || back != s {
			t.Errorf("severity %v round-trips to %v (err %v)", s, back, err)
		}
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &s); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: "SV002", Severity: Error, Component: "QM", Action: "Enq",
		Message: "bad", Hint: "fix it"}
	s := d.String()
	for _, want := range []string{"SV002", "error", "QM/Enq", "bad", "fix: fix it"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestResultCountsAndFilter(t *testing.T) {
	r := &Result{}
	r.add(Diagnostic{Code: "A", Severity: Info})
	r.add(Diagnostic{Code: "B", Severity: Warn})
	r.add(Diagnostic{Code: "C", Severity: Error})
	if r.Errors() != 1 || r.Warnings() != 1 || r.Infos() != 1 || !r.HasErrors() {
		t.Errorf("counts: e=%d w=%d i=%d", r.Errors(), r.Warnings(), r.Infos())
	}
	if got := r.Filter(Warn); len(got) != 2 || got[0].Code != "B" || got[1].Code != "C" {
		t.Errorf("Filter(Warn) = %v", got)
	}
	o := &Result{}
	o.Merge(r)
	if len(o.Diagnostics) != 3 {
		t.Errorf("Merge copied %d diagnostics", len(o.Diagnostics))
	}
}

func TestParseMode(t *testing.T) {
	for _, s := range []string{"strict", "warn", "off"} {
		m, err := ParseMode(s)
		if err != nil || string(m) != s {
			t.Errorf("ParseMode(%q) = %v, %v", s, m, err)
		}
	}
	if _, err := ParseMode("loose"); err == nil {
		t.Error("ParseMode accepted an invalid mode")
	}
}

func TestSection(t *testing.T) {
	r := &Result{}
	r.add(Diagnostic{Code: "SV002", Severity: Error, Component: "c", Action: "A",
		Message: "m", Hint: "h"})
	r.add(Diagnostic{Code: "SV034", Severity: Info, Component: "c", Message: "n"})
	sec := r.Section(ModeStrict)
	if sec.Mode != "strict" || sec.Errors != 1 || sec.Infos != 1 || sec.Warnings != 0 {
		t.Errorf("section header: %+v", sec)
	}
	if len(sec.Diagnostics) != 2 || sec.Diagnostics[0].Code != "SV002" ||
		sec.Diagnostics[0].Severity != "error" || sec.Diagnostics[0].Hint != "h" {
		t.Errorf("section diagnostics: %+v", sec.Diagnostics)
	}
}
