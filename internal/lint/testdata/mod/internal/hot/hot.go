// Package hot is the golden fixture for the hotpath-alloc-proof
// module rule: a //hot:-marked root whose call graph reaches
// allocating constructs directly, through an interface method, and
// through a function value.
package hot

import "fmt"

// Summer is implemented by two module types; the interface call in
// step fans out to both.
type Summer interface {
	Sum(xs []float64) float64
}

// CleanSummer accumulates without allocating.
type CleanSummer struct{ total float64 }

// Sum adds in place.
func (c *CleanSummer) Sum(xs []float64) float64 {
	for _, x := range xs {
		c.total += x
	}
	return c.total
}

// DirtySummer allocates a scratch slice per call.
type DirtySummer struct{}

// Sum copies before adding.
func (DirtySummer) Sum(xs []float64) float64 {
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	var t float64
	for _, x := range tmp {
		t += x
	}
	return t
}

// hot: per-cycle fixture root
func Step(s Summer, xs []float64, f func(float64) float64) float64 {
	v := s.Sum(xs)
	v = f(v)
	return v + direct(xs)
}

// direct is statically reachable from Step and allocates in several
// distinct ways the scanner must each report.
func direct(xs []float64) float64 {
	out := make([]float64, 0, len(xs))
	out = append(out, xs...)
	label := "n=" + itoa(len(xs))
	fmt.Println(label)
	g := func(x float64) float64 { return x * 2 }
	if len(xs) == 0 {
		panic(fmt.Sprintf("hot: empty input %d", len(xs))) //lint:ignore exit-hygiene fixture invariant; caller bug
	}
	//lint:ignore hotpath-alloc-proof fixture: sanctioned scratch growth, reason stated
	keep := append([]float64(nil), out...)
	return g(keep[0])
}

// Square is address-taken in New and signature-matches the f
// parameter of Step, so the indirect call fans out to it.
func Square(x float64) float64 {
	box := []float64{x}
	return box[0] * box[0]
}

// New wires the fixture together (cold path; its own literals are
// not reachable from the //hot: root and must not be reported).
func New() (Summer, func(float64) float64) {
	return &CleanSummer{}, Square
}

// itoa is an alloc-free formatter (lookup of interned strings) so the
// concat in direct is the fixture's only string-concat finding even
// though itoa is itself reachable from the hot root.
func itoa(v int) string {
	names := [...]string{"0", "1", "2", "3"}
	if v >= 0 && v < len(names) {
		return names[v]
	}
	return "many"
}

// hot: per-cycle fixture root in the spaced form gofmt writes
func Spaced(n int) []float64 {
	return make([]float64, n)
}
