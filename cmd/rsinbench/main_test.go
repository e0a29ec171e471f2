package main

import (
	"errors"
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestParseFlags pins the command line: what runs for each -exp, and that
// the values the parent silently accepted (-trials below the smallest
// non-empty ensemble, an unknown -format, the deleted -sched family) are
// errors — which main turns into exit 2.
func TestParseFlags(t *testing.T) {
	all := make([]string, len(suite))
	for i, e := range suite {
		all[i] = e.id
	}
	cases := []struct {
		args    string
		want    options // run is checked through wantRun
		wantRun []string
		errHas  string // "" = must parse
	}{
		{args: "", want: options{seed: 1, trials: 2000}, wantRun: all},
		{args: "-exp E17", want: options{seed: 1, trials: 2000}, wantRun: []string{"E17"}},
		{args: "-exp e18 -seed 7", want: options{seed: 7, trials: 2000}, wantRun: []string{"E18"}},
		{args: "-trials 2 -format csv", want: options{seed: 1, trials: 2, csv: true}, wantRun: all},
		{args: "-format table", want: options{seed: 1, trials: 2000}, wantRun: all},
		{args: "-trials 1", errHas: "-trials 1"},
		{args: "-trials 0", errHas: "-trials 0"},
		{args: "-trials -5", errHas: "-trials -5"},
		{args: "-format xml", errHas: `"xml"`},
		{args: "-exp E2", errHas: `"E2"`},
		{args: "-exp E1x", errHas: `"E1x"`},
		{args: "-sched", errHas: "-sched"},
		{args: "-smoke", errHas: "-smoke"},
		{args: "-openloop", errHas: "-openloop"},
		{args: "-json out.json", errHas: "-json"},
	}
	for _, c := range cases {
		var stderr strings.Builder
		got, err := parseFlags(strings.Fields(c.args), &stderr)
		if c.errHas != "" {
			if err == nil {
				t.Errorf("%q: parsed to %+v, want an error", c.args, got)
			} else if !strings.Contains(stderr.String(), c.errHas) {
				t.Errorf("%q: stderr %q does not name %s", c.args, stderr.String(), c.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		var ran []string
		for _, i := range got.run {
			ran = append(ran, suite[i].id)
		}
		if !slices.Equal(ran, c.wantRun) {
			t.Errorf("%q: runs %v, want %v", c.args, ran, c.wantRun)
		}
		if got.seed != c.want.seed || got.trials != c.want.trials || got.csv != c.want.csv {
			t.Errorf("%q: options %+v, want %+v", c.args, got, c.want)
		}
	}
}

// TestHelpNamesEveryExperiment: the -exp help is built from the suite, so
// it cannot fall behind it again (it stopped at E16 while E17 and E18 ran).
func TestHelpNamesEveryExperiment(t *testing.T) {
	var stderr strings.Builder
	if _, err := parseFlags([]string{"-h"}, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	for _, e := range suite {
		if !strings.Contains(stderr.String(), e.id+",") && !strings.Contains(stderr.String(), e.id+")") {
			t.Errorf("-exp help does not list %s:\n%s", e.id, stderr.String())
		}
	}
}
