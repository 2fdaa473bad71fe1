// Package detrand exercises the detrand analyzer. This file is tagged
// deterministic, so wall-clock reads, the global math/rand source, and
// map-iteration-order dependent output are findings here.
//
//lint:deterministic
package detrand

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in a deterministic file`
}

func pick(n int) int {
	return rand.Intn(n) // want `global math/rand source \(rand\.Intn\)`
}

// seeded is the sanctioned pattern: an injectable seed feeding a private
// source. Constructing the source and calling its methods is fine.
func seeded(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

func flatten(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out while ranging over a map`
	}
	return out
}

// mapKeys collects keys for an immediate sort: the analyzer cannot see
// the sort two lines down, so the collection carries a suppression with
// its justification — the documented escape hatch for this rule.
func mapKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		//lint:ignore detrand keys are sorted before return
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sum folds commutatively: order cannot leak, no finding.
func sum(m map[string]int) int {
	var t int
	for _, v := range m {
		t += v
	}
	return t
}

// copyMap writes into another map: an unordered sink, no finding.
func copyMap(dst, src map[string]int) {
	for k, v := range src {
		dst[k] = v
	}
}

func build(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `writing to b while ranging over a map`
	}
	return b.String()
}

// explain writes through fmt, as report renderers do: the same finding.
func explain(m map[string]int) string {
	var b strings.Builder
	for k, v := range m {
		fmt.Fprintf(&b, "%s=%d\n", k, v) // want `writing to b while ranging over a map`
	}
	return b.String()
}

// buildSorted ranges over a sorted slice instead: no finding.
func buildSorted(m map[string]int) string {
	keys := mapKeys(m)
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
	}
	return b.String()
}

// perIteration appends to a loop-local slice: order cannot escape an
// iteration, no finding.
func perIteration(m map[string][]string) int {
	n := 0
	for k, vs := range m {
		parts := make([]string, 0, len(vs)+1)
		parts = append(parts, k)
		parts = append(parts, vs...)
		n += len(parts)
	}
	return n
}
