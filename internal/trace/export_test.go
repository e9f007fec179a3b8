package trace

// pageMap materializes the generator's live vpage→ppage translations so
// tests can reverse-map physical addresses, as they did when the page
// table was a Go map.
func (s *Synth) pageMap() map[uint64]uint64 {
	m := make(map[uint64]uint64)
	t := &s.pt
	for i, k := range t.keys {
		if k != noPage {
			m[k] = t.vals[i]
		}
	}
	return m
}
