// Command app is the fixture's product.
package main

import (
	"fmt"

	"fixture/internal/shapes"
	"fixture/internal/tensor"
)

func main() {
	a := tensor.New(1, 1)
	fmt.Println(a.MatMulInto(a, tensor.New(1, 1)).Data, shapes.Total([]shapes.Shape{shapes.Square{Side: 2}}))
}
