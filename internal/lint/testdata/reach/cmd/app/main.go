// Command app is the only root of the reachability fixture.
package main

import (
	"fmt"
	"strings"

	"reachmod/lib"
)

func main() {
	var r lib.Rot
	fmt.Println(strings.Map(r.Shift, "abc")) // method value handed to the library
	fmt.Println(lib.Label{Text: "x"})        // String reached only through fmt
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), len(lib.Table))
}
