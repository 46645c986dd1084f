// Package a is the maporder golden package: ranging over a map with
// order-dependent effects (unsorted appends, output writes) leaks Go's
// randomized iteration order into results.
package a

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// unsortedAppend leaks map order into the returned slice.
func unsortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `keys is appended to in map-iteration order and never sorted`
	}
	return keys
}

// sortedAppend is the sanctioned pattern: collect, then sort.
func sortedAppend(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortViaInterfaceOK: sort.Sort with the slice wrapped in an adapter
// still counts as the intervening sort.
func sortViaInterfaceOK(m map[int]bool) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sort.Sort(sort.IntSlice(ids))
	return ids
}

// printsInside writes output in iteration order.
func printsInside(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside this loop produces non-deterministic output`
	}
}

// buildsString writes through a strings.Builder in iteration order.
func buildsString(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k) // want `writing through \.WriteString inside this loop`
	}
	return sb.String()
}

// innerSliceOK: a slice that lives and dies inside the loop body cannot
// leak iteration order.
func innerSliceOK(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var acc []int
		acc = append(acc, vs...)
		total += len(acc)
	}
	return total
}

// aggregationOK: counting and max-finding are order-free.
func aggregationOK(m map[string]int) (int, int) {
	n, max := 0, 0
	for _, v := range m {
		n++
		if v > max {
			max = v
		}
	}
	return n, max
}

// mapToMapOK: building another map is order-free.
func mapToMapOK(m map[int]string) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}
