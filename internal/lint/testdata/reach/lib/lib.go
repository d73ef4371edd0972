// Package lib holds one function per reachability case.
package lib

import "fmt"

// Table is a var initializer mentioning fromVar, which no code calls.
var Table = map[string]func() int{"a": fromVar}

func fromVar() int { return 1 }

func init() { initOnly() }

func initOnly() {}

// Rot's Shift is used only as a method value.
type Rot struct{}

// Shift calls rotate, so it is live through the method value alone.
func (Rot) Shift(r rune) rune { return rotate(r) }

func rotate(r rune) rune { return r + 1 }

// Label is printed; fmt calls its String dynamically.
type Label struct{ Text string }

func (l Label) String() string { return fmt.Sprintf("<%s>", l.Text) }

// Unused is a dead method of a live type.
func (l Label) Unused() string { return l.Text }

// Shape is dispatched dynamically.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

// Area is reached only through the Shape interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// Total sums areas through the interface.
func Total(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Dead has no caller at all.
func Dead() {}

//lint:ignore unreachable TestUnreachableGolden keeps it as a fixture
func Kept() {}

//lint:ignore unreachable
func NoReason() {}
