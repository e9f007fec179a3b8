package trace

// pageMap materializes the generator's live vpage→ppage translations so
// tests can reverse-map physical addresses.
func (s *Synth) pageMap() map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for vpage, ppage := range s.pt {
		if ppage != noPage {
			m[uint64(vpage)] = ppage
		}
	}
	return m
}
