// Command gomaxprocs prints the GOMAXPROCS value the Go runtime picks
// in its environment. perfbench/run.py starts it the way it starts
// rixbench and records the figure in its host-noise record.
package main

import (
	"fmt"
	"runtime"
)

func main() { fmt.Println(runtime.GOMAXPROCS(0)) }
