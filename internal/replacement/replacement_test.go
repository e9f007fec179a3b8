package replacement

import (
	"testing"
	"testing/quick"

	"dbisim/internal/config"
)

// mustNew builds a policy as the caches do, failing the test on error.
func mustNew(t *testing.T, kind config.ReplacementKind, sets, ways, threads int, seed int64) Policy {
	t.Helper()
	p, err := New(kind, sets, ways, threads, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newLRU(t *testing.T, sets, ways int) *LRU {
	return mustNew(t, config.ReplLRU, sets, ways, 1, 0).(*LRU)
}

func newTADIP(t *testing.T, sets, ways, threads int, seed int64) *TADIP {
	return mustNew(t, config.ReplTADIP, sets, ways, threads, seed).(*TADIP)
}

func newDRRIP(t *testing.T, sets, ways, threads int, seed int64) *DRRIP {
	return mustNew(t, config.ReplDRRIP, sets, ways, threads, seed).(*DRRIP)
}

func TestLRUBasic(t *testing.T) {
	p := newLRU(t, 4, 4)
	// Fill ways 0..3 in order; way 0 is LRU.
	for w := 0; w < 4; w++ {
		p.Insert(1, w, 0)
	}
	if v := p.Victim(1); v != 0 {
		t.Fatalf("victim = %d, want 0", v)
	}
	// Touch way 0; way 1 becomes LRU.
	p.Touch(1, 0)
	if v := p.Victim(1); v != 1 {
		t.Fatalf("victim after touch = %d, want 1", v)
	}
	p.OnMiss(1, 0) // no-op, must not panic
}

func TestLRUSetsIndependent(t *testing.T) {
	p := newLRU(t, 2, 2)
	p.Insert(0, 0, 0)
	p.Insert(0, 1, 0)
	p.Insert(1, 1, 0)
	p.Insert(1, 0, 0)
	if p.Victim(0) != 0 {
		t.Fatal("set 0 victim wrong")
	}
	if p.Victim(1) != 1 {
		t.Fatal("set 1 victim wrong")
	}
}

// Exercising an access sequence: LRU victim is always the least recently
// touched/inserted way.
func TestLRUMatchesReference(t *testing.T) {
	const ways = 8
	p := newLRU(t, 1, ways)
	ref := make([]int, 0, ways) // recency list, LRU first
	touch := func(w int) {
		for i, v := range ref {
			if v == w {
				ref = append(ref[:i], ref[i+1:]...)
				break
			}
		}
		ref = append(ref, w)
	}
	for w := 0; w < ways; w++ {
		p.Insert(0, w, 0)
		touch(w)
	}
	seq := []int{3, 1, 4, 1, 5, 0, 2, 6, 7, 3}
	for _, w := range seq {
		p.Touch(0, w)
		touch(w)
		if got, want := p.Victim(0), ref[0]; got != want {
			t.Fatalf("after touching %d: victim %d, want %d", w, got, want)
		}
	}
}

func TestTADIPLeaderSetsDisjoint(t *testing.T) {
	d := newTADIP(t, 2048, 16, 2, 1)
	lru, bip := 0, 0
	for s := 0; s < 2048; s++ {
		switch d.leaderKind(s, 0) {
		case 1:
			lru++
		case -1:
			bip++
		}
	}
	if lru != 32 || bip != 32 {
		t.Fatalf("thread 0 leaders: %d LRU, %d BIP; want 32/32", lru, bip)
	}
	// Different threads use different leader sets.
	same := 0
	for s := 0; s < 2048; s++ {
		if d.leaderKind(s, 0) != 0 && d.leaderKind(s, 0) == d.leaderKind(s, 1) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("threads share %d leader sets", same)
	}
}

func TestTADIPPSELMovement(t *testing.T) {
	d := newTADIP(t, 256, 4, 1, 1)
	start := d.psel[0]
	// Misses in LRU leader sets push PSEL up (toward BIP).
	for s := 0; s < 256; s++ {
		if d.leaderKind(s, 0) == 1 {
			for i := 0; i < 10; i++ {
				d.OnMiss(s, 0)
			}
		}
	}
	if d.psel[0] <= start {
		t.Fatalf("PSEL did not rise: %d -> %d", start, d.psel[0])
	}
	// Misses in BIP leader sets push it back down.
	for s := 0; s < 256; s++ {
		if d.leaderKind(s, 0) == -1 {
			for i := 0; i < 40; i++ {
				d.OnMiss(s, 0)
			}
		}
	}
	if d.psel[0] >= start {
		t.Fatalf("PSEL did not fall below start: %d", d.psel[0])
	}
}

func TestTADIPPSELSaturates(t *testing.T) {
	d := newTADIP(t, 64, 4, 1, 1)
	var lruLeader, bipLeader int = -1, -1
	for s := 0; s < 256; s++ {
		switch d.leaderKind(s, 0) {
		case 1:
			lruLeader = s
		case -1:
			bipLeader = s
		}
	}
	// The 10-bit selector starts at 511 and saturates at 1023.
	for i := 0; i < 2000; i++ {
		d.OnMiss(lruLeader, 0)
	}
	if d.psel[0] != 1023 {
		t.Fatalf("PSEL = %d, want saturation at 1023", d.psel[0])
	}
	for i := 0; i < 2000; i++ {
		d.OnMiss(bipLeader, 0)
	}
	if d.psel[0] != 0 {
		t.Fatalf("PSEL = %d, want saturation at 0", d.psel[0])
	}
}

func TestTADIPBIPInsertsAtLRU(t *testing.T) {
	// With PSEL saturated high, follower sets use BIP: inserted blocks
	// mostly stay the next victim.
	d := newTADIP(t, 256, 4, 1, 1)
	for s := 0; s < 256; s++ {
		if d.leaderKind(s, 0) == 1 {
			for i := 0; i < 2000; i++ {
				d.OnMiss(s, 0)
			}
		}
	}
	follower := -1
	for s := 0; s < 256; s++ {
		if d.leaderKind(s, 0) == 0 {
			follower = s
			break
		}
	}
	for w := 0; w < 4; w++ {
		d.Insert(follower, w, 0)
		d.Touch(follower, w)
	}
	victimAfterInsert := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		v := d.Victim(follower)
		d.Insert(follower, v, 0)
		if d.Victim(follower) == v {
			victimAfterInsert++
		}
	}
	if victimAfterInsert < trials*8/10 {
		t.Fatalf("BIP kept only %d/%d inserts at LRU", victimAfterInsert, trials)
	}
}

func TestTADIPLRUModeInsertsAtMRU(t *testing.T) {
	d := newTADIP(t, 256, 4, 1, 1)
	// PSEL starts at midpoint; drive it low so followers use LRU insertion.
	for s := 0; s < 256; s++ {
		if d.leaderKind(s, 0) == -1 {
			for i := 0; i < 2000; i++ {
				d.OnMiss(s, 0)
			}
		}
	}
	follower := -1
	for s := 0; s < 256; s++ {
		if d.leaderKind(s, 0) == 0 {
			follower = s
			break
		}
	}
	for w := 0; w < 4; w++ {
		d.Insert(follower, w, 0)
	}
	v := d.Victim(follower)
	d.Insert(follower, v, 0)
	if d.Victim(follower) == v {
		t.Fatal("LRU-mode insert stayed at LRU position")
	}
}

func TestDRRIPVictimPrefersMaxRRPV(t *testing.T) {
	d := newDRRIP(t, 16, 4, 1, 1)
	// All RRPVs start at max: way 0 is the first victim.
	if v := d.Victim(0); v != 0 {
		t.Fatalf("initial victim = %d, want 0", v)
	}
	d.Insert(0, 0, 0) // SRRIP leader or follower: inserts below max
	d.Touch(0, 1)     // way 1 becomes RRPV 0
	if v := d.Victim(0); v == 1 {
		t.Fatal("victim chose the just-touched way")
	}
}

func TestDRRIPAging(t *testing.T) {
	d := newDRRIP(t, 1, 2, 1, 1)
	d.Touch(0, 0)
	d.Touch(0, 1)
	// No way has max RRPV; victim search must age and terminate.
	v := d.Victim(0)
	if v != 0 && v != 1 {
		t.Fatalf("victim = %d", v)
	}
}

func TestDRRIPPSEL(t *testing.T) {
	d := newDRRIP(t, 64, 4, 1, 1)
	srrip, brrip := -1, -1
	for s := 0; s < 256; s++ {
		switch d.leaderKind(s, 0) {
		case 1:
			srrip = s
		case -1:
			brrip = s
		}
	}
	if srrip < 0 || brrip < 0 {
		t.Fatal("missing leader sets")
	}
	before := d.psel[0]
	d.OnMiss(srrip, 0)
	if d.psel[0] != before+1 {
		t.Fatal("SRRIP-leader miss did not increment PSEL")
	}
	d.OnMiss(brrip, 0)
	d.OnMiss(brrip, 0)
	if d.psel[0] != before-1 {
		t.Fatal("BRRIP-leader misses did not decrement PSEL")
	}
}

func TestNewByKind(t *testing.T) {
	for _, k := range []config.ReplacementKind{config.ReplLRU, config.ReplTADIP, config.ReplDRRIP} {
		p, err := New(k, 64, 8, 2, 1)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if p == nil {
			t.Fatalf("New(%v) returned nil", k)
		}
	}
	if _, err := New(config.ReplacementKind(99), 4, 2, 1, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// Property: Victim always returns a legal way index, for every policy.
func TestQuickVictimInRange(t *testing.T) {
	mk := []func() Policy{
		func() Policy { return newLRU(t, 16, 8) },
		func() Policy { return newTADIP(t, 16, 8, 2, 3) },
		func() Policy { return newDRRIP(t, 16, 8, 2, 3) },
	}
	for _, make := range mk {
		p := make()
		f := func(ops []uint16) bool {
			for _, op := range ops {
				set := int(op) % 16
				way := int(op>>4) % 8
				thread := int(op >> 8 & 1)
				switch op % 4 {
				case 0:
					p.Touch(set, way)
				case 1:
					p.Insert(set, way, thread)
				case 2:
					p.OnMiss(set, thread)
				case 3:
					if v := p.Victim(set); v < 0 || v >= 8 {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%T: %v", p, err)
		}
	}
}
