// Command app links the fixture's reached declarations.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	t := &a.T{}
	v := a.T{}
	b := &a.Box[int]{}
	cfg := a.Config{Set: 1}
	cfg.Inner.X = 2 // sets InnerConfig.X, not Config.Inner
	fmt.Println(a.Used(), t.PtrUsed(), v.ValUsed(), a.Generic(4), b.Get(), cfg)
}
