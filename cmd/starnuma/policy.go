package main

import (
	"flag"
	"fmt"

	"starnuma/internal/migrate"
)

var policyGroup = group{
	name:    "policy",
	summary: "list the registered migration policies (internal/migrate)",
	notes: `Select a policy for a run with -policy name or -policy 'name:{json-params}',
e.g. -policy 'starnuma:{"hi_start":64}'.
`,
	cmds: []command{
		{"list", "", "list registered migration policies and their parameters", policyList},
	},
}

// policyList prints the migrate registry — the same source of truth
// -policy validation, the scenario DSL and the policysweep tournament
// use.
func policyList(fs *flag.FlagSet, args []string) error {
	if err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	for _, d := range migrate.Policies() {
		fmt.Printf("%-18s %s\n", d.Name, d.Doc)
		for _, p := range d.Params {
			fmt.Printf("    %-24s %s (default %g)\n", p.Name, p.Doc, p.Default)
		}
	}
	return nil
}
