// Package shapes is the census fixture's interface case.
package shapes

// Shape is called through Area only; nothing calls Perimeter.
type Shape interface {
	Area() float64
	Perimeter() float64
}

// Square is reached only through Shape: nothing names Square.Area.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter implements Shape.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Total sums the areas of shapes.
func Total(shapes []Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// OnlyTested is called by shapes_test.go alone.
func OnlyTested() int { return helper() }

// helper is called from OnlyTested's body: any reference from a non-test
// file reaches it, so it is reported only once OnlyTested is gone.
func helper() int { return 1 }
