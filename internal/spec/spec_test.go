package spec

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

type plan struct {
	Rate  float64
	Other float64
	Count int
	ID    uint64
	Wait  time.Duration
	On    bool
	Label string
	Seed  int64
}

var planKnobs = []Knob{
	{Keys: "rate", Field: "Rate", Max: 1},
	{Keys: "both|rate2", Field: "Other", Max: 1},
	{Keys: "both", Field: "Rate", Max: 1},
	{Keys: "count", Field: "Count", Min: 1, Max: 10, Default: 3},
	{Keys: "id", Field: "ID", Min: 1, Max: math.Inf(1), Default: func(idx int) any { return idx + 1 }},
	{Keys: "wait", Field: "Wait"},
	{Keys: "on", Field: "On"},
	{Keys: "label", Field: "Label"},
	{Keys: "seed", Field: "Seed"}, // unbounded
}

func TestList(t *testing.T) {
	if got := List(" a ,, b ;c,", ","); !reflect.DeepEqual(got, []string{"a", "b ;c"}) {
		t.Errorf("List = %q", got)
	}
	if got := List("  ", ";"); got != nil {
		t.Errorf("List of blanks = %q", got)
	}
}

func TestParse(t *testing.T) {
	var p plan
	Defaults(&p, planKnobs, 4)
	if p.Count != 3 || p.ID != 5 {
		t.Fatalf("Defaults = %+v", p)
	}
	if err := Parse(&p, planKnobs, " BOTH=0.5, count=7,wait=20ms ,on=true,label=x=y,, "); err != nil {
		t.Fatal(err)
	}
	want := plan{Rate: 0.5, Other: 0.5, Count: 7, ID: 5, Wait: 20 * time.Millisecond, On: true, Label: "x=y"}
	if p != want {
		t.Fatalf("Parse = %+v, want %+v", p, want)
	}
	if err := Parse(&p, planKnobs, "rate2=0.25"); err != nil || p.Other != 0.25 {
		t.Fatalf("alias: %+v, %v", p, err)
	}

	for s, name := range map[string]string{
		"rate=NaN":   "Rate (rate)",
		"rate=Inf":   "Rate (rate)",
		"rate=1e400": "Rate (rate)",
		"both=-0":    "", // -0 is in [0, 1]
		"seed=-5":    "",
		"both=2":     "Other (both)",
		"count=0":    "Count (count)",
		"count=1.5":  "Count (count)",
		"id=0":       "ID (id)",
		"id=-1":      "ID (id)",
		"wait=-1ms":  "Wait (wait)",
		"on=maybe":   "On (on)",
		"rate":       "want key=value",
		"nope=1":     `unknown key "nope"`,
	} {
		err := Parse(&plan{}, planKnobs, s)
		switch {
		case name == "" && err != nil:
			t.Errorf("Parse(%q) = %v", s, err)
		case name != "" && (err == nil || !strings.Contains(err.Error(), name)):
			t.Errorf("Parse(%q) = %v, want an error naming %q", s, err, name)
		}
	}
}

func TestCheck(t *testing.T) {
	if err := Check(plan{Count: 1, ID: 1}, planKnobs); err != nil {
		t.Fatal(err)
	}
	for _, p := range []plan{
		{Rate: math.NaN(), Count: 1, ID: 1},
		{Other: math.Inf(-1), Count: 1, ID: 1},
		{Count: 11, ID: 1},
		{Count: 1},
		{Count: 1, ID: 1, Wait: -time.Second},
	} {
		if err := Check(&p, planKnobs); err == nil {
			t.Errorf("Check(%+v) accepted", p)
		}
	}
}
