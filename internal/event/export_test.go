package event

// Pending counts the events waiting to fire: the records queued in the
// ring's slots plus the far list.
func (e *Engine) Pending() int {
	n := len(e.far)
	for i := range e.ring {
		for r := e.ring[i].head; r != nil; r = r.next {
			n++
		}
	}
	return n
}
