package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("experiment name %q is not unique", e.name)
		}
		seen[e.name] = true
	}

	all, err := lookup("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("lookup(all) = %d experiments, %v; want %d", len(all), err, len(experiments))
	}
	got, err := lookup("rankscale")
	if err != nil || len(got) != 1 || got[0].name != "rankscale" {
		t.Fatalf("lookup(rankscale) = %v, %v", got, err)
	}

	// A mistyped name fails and lists every valid one.
	if _, err := lookup("nosuch"); err == nil {
		t.Fatal("lookup(nosuch) succeeded")
	} else {
		for name := range seen {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list %q", err, name)
			}
		}
	}
}

func TestQuickRanks(t *testing.T) {
	axis := []int{8, 32, 128, 256, 1024}
	if got := (config{}).ranks(axis); !reflect.DeepEqual(got, axis) {
		t.Errorf("full ranks = %v, want %v", got, axis)
	}
	if got, want := (config{quick: true}).ranks(axis), []int{8, 32, 128}; !reflect.DeepEqual(got, want) {
		t.Errorf("quick ranks = %v, want %v", got, want)
	}
}
