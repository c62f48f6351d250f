package main

import (
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
		{list: "none", want: []string{"none"}},
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
