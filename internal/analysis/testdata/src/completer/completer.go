// Package completer is an analysis fixture for hotalloc's completion-
// callback roots: a method with dram.Completer's signature is walked like a
// Tick, and a method that only shares the name is not. TestCompleterRoots
// counts the findings.
package completer

// Node completes memory requests by tag.
type Node struct {
	held [][]uint32
}

// Complete has dram.Completer's signature, so it is a hot-path root.
func (n *Node) Complete(tag int32, data []uint32) {
	n.held = append(n.held, data) // FINDING: append growth in a completion callback
	n.keep(tag)
}

func (n *Node) keep(tag int32) {
	_ = make([]int32, tag) // FINDING: reached from Complete
}

// Other shares the method name with another signature: not a root.
type Other struct {
	log []int
}

// Complete is not a completion callback.
func (o *Other) Complete(step int) {
	o.log = append(o.log, step)
}
