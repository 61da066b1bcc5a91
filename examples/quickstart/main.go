// Quickstart: define two tiny open components with assumption/guarantee
// specifications, compose them with the Composition Theorem, and model-check
// one of them against its A/G spec directly.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"opentla/internal/ag"
	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	domains := map[string][]value.Value{"req": value.Bits(), "grant": value.Bits()}

	// A "server" that guarantees grant mirrors req — but only assuming the
	// client toggles req politely (never while a grant is pending).
	serve := form.And(
		form.Eq(form.PrimedVar("grant"), form.Var("req")),
		form.Unchanged("req"),
	)
	server := &spec.Component{
		Name:    "server",
		Inputs:  []string{"req"},
		Outputs: []string{"grant"},
		Init:    form.Eq(form.Var("grant"), form.IntC(0)),
		Actions: []spec.Action{{Name: "Serve", Def: serve}},
		Fairness: []spec.Fairness{
			{Kind: form.Weak, Action: serve},
		},
	}

	// The client's assumption, as a component owning req: it may raise req
	// only when grant agrees with req (i.e. the server has caught up).
	toggle := form.And(
		form.Eq(form.Var("grant"), form.Var("req")),
		form.Ne(form.PrimedVar("req"), form.Var("req")),
		form.Unchanged("grant"),
	)
	clientEnv := &spec.Component{
		Name:    "client-assumption",
		Inputs:  []string{"grant"},
		Outputs: []string{"req"},
		Init:    form.Eq(form.Var("req"), form.IntC(0)),
		Actions: []spec.Action{{Name: "Toggle", Def: toggle}},
	}

	// 1. Check the A/G spec directly: in the most general environment (req
	//    changes freely), the server still satisfies E ⊳ M where M is its
	//    own safety guarantee restricted to "grant only follows req".
	sys := &ts.System{
		Name:       "server-alone",
		Components: []*spec.Component{server},
		Domains:    domains,
	}
	g, err := sys.Build()
	if err != nil {
		return err
	}
	guarantee := &spec.Component{
		Name:    "M",
		Inputs:  []string{"req"},
		Outputs: []string{"grant"},
		Init:    form.Eq(form.Var("grant"), form.IntC(0)),
		Actions: []spec.Action{{Name: "Follow", Def: serve}},
	}
	res, err := check.WhilePlus(g, clientEnv, guarantee, nil)
	if err != nil {
		return err
	}
	fmt.Printf("server satisfies E -+> M: %v\n", res.Holds())

	// 2. Compose: client assumption met by a real client component, server
	//    guarantee met by the server — conclude the complete system keeps
	//    grant following req, via the Composition Theorem.
	conclusion := &spec.Component{
		Name:    "handover",
		Outputs: []string{"req", "grant"},
		Init: form.And(
			form.Eq(form.Var("req"), form.IntC(0)),
			form.Eq(form.Var("grant"), form.IntC(0)),
		),
		Actions: []spec.Action{
			{Name: "Toggle", Def: toggle},
			{Name: "Serve", Def: serve},
		},
	}
	th := &ag.Theorem{
		Name: "quickstart: client + server",
		Pairs: []ag.Pair{
			{Name: "server", Env: clientEnv, Sys: guarantee},
			{Name: "client", Env: guarantee.SafetyOnly(), Sys: clientEnv},
		},
		Concl:   ag.Conclusion{Sys: conclusion},
		Domains: domains,
	}
	// Checks are governed: a budget bounds the run and an exhausted budget
	// yields an UNKNOWN verdict with partial statistics instead of a hang.
	report, err := th.CheckWith(engine.Budget{MaxStates: 100_000}.Meter())
	if err != nil {
		return err
	}
	fmt.Print(report)
	fmt.Printf("verdict: %s (exit code %d); run stats: %s\n",
		report.Verdict, report.Verdict.ExitCode(), report.Stats)
	return nil
}
