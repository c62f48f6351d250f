package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestParseExp(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // selected names; nil when the list is rejected
		bad  string   // the entry the error must name
	}{
		{list: "all", want: []string{"all"}},
		{list: "none", bad: `"none"`},
		{list: "fig11", want: []string{"fig11"}},
		{list: "fig11, fig13", want: []string{"fig11", "fig13"}},
		{list: "accuracy,tab1", want: []string{"accuracy", "tab1"}},
		{list: "nosuchfig", bad: `"nosuchfig"`},
		{list: "fig11,nosuch", bad: `"nosuch"`},
		{list: "fig11,", bad: `""`},
		{list: "", bad: `""`},
		{list: "FIG11", bad: `"FIG11"`},
	} {
		got, err := parseExp(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseExp(%q) = %v, want an error", tc.list, got)
			} else if !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("parseExp(%q) error %q does not name %s", tc.list, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExp(%q): %v", tc.list, err)
			continue
		}
		want := map[string]bool{}
		for _, n := range tc.want {
			want[n] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseExp(%q) = %v, want %v", tc.list, got, want)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // what the error must name; "" when the flags are valid
	}{
		{args: nil},
		{args: []string{"-exp", "fig13", "-pscale", "0.3", "-runs", "1"}},
		{args: []string{"-unit-retries", "0", "-unit-deadline", "0", "-unit-backoff", "0"}},
		{args: []string{"-exp", "fig3", "fig13"}, bad: `"fig13"`},
		{args: []string{"-runs", "0"}, bad: "-runs"},
		{args: []string{"-runs", "-2"}, bad: "-runs"},
		{args: []string{"-ascale", "0"}, bad: "-ascale"},
		{args: []string{"-ascale", "NaN"}, bad: "-ascale"},
		{args: []string{"-pscale", "-1"}, bad: "-pscale"},
		{args: []string{"-pscale", "0"}, bad: "-pscale"},
		{args: []string{"-pscale", "+Inf"}, bad: "-pscale"},
		{args: []string{"-unit-retries", "-1"}, bad: "-unit-retries"},
		{args: []string{"-unit-deadline", "-1s"}, bad: "-unit-deadline"},
		{args: []string{"-unit-backoff", "-1ms"}, bad: "-unit-backoff"},
	} {
		fs, o := newFlags(flag.ContinueOnError)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		err := o.validate(fs.Args())
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", tc.args, tc.bad)
		case tc.bad != "" && !strings.Contains(err.Error(), tc.bad):
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.bad)
		}
	}
	// The run-cache flags are gone: the parser rejects them.
	for _, args := range [][]string{{"-cache", "dir"}, {"-cache-gc", "720h"}} {
		fs, _ := newFlags(flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v: accepted, want an unknown-flag error", args)
		}
	}
}
