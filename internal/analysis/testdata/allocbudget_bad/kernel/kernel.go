// Package kernel is the alloc-budget bad fixture: a hot entry reaching
// allocations of every flagged class, none justified.
package kernel

import (
	"fmt"

	"abbad/helper"
)

type item struct {
	Name string
	N    int
}

type sink interface{ Consume(v any) }

// sia:hotpath
func Process(s sink, names []string, n int) string {
	xs := make([]int, n)  // make on the hot path
	m := map[string]int{} // map literal
	for i := range xs {
		m[names[i%len(names)]] = i // map assignment growth
	}
	it := &item{Name: "x", N: n}           // &composite literal
	s.Consume(n)                           // interface boxing of an int
	label := "id-" + names[0]              // string concatenation
	out := append([]string(nil), names...) // append into a different variable
	go helper.Note(label)                  // go statement
	cb := helper.Pick()
	cb()                                        // dynamic: untracked function value
	bs := []byte(label)                         // string -> []byte conversion
	return fmt.Sprintf("%v %v %v", it, out, bs) // fmt.Sprintf + boxing
}
