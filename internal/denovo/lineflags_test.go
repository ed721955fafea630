package denovo

import (
	"testing"

	"repro/internal/memsys"
)

// TestForeignLineFlagsDoNotAlias pins the per-line flag store of a slice
// for lines it does not home. A Flex retry can make a slice fetch, fill
// and gate such a line, and its slot in the slice's per-line array
// (line / Tiles) belongs to a homed line: the two must keep separate
// flags, and the foreign entry must go once its flags clear.
func TestForeignLineFlagsDoNotAlias(t *testing.T) {
	env, err := memsys.NewEnv(memsys.Default().Scaled(64), 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl := New(env, Options{}).l2s[0]
	tiles := uint32(env.Cfg.Tiles)
	homed, foreign := 5*tiles, 5*tiles+1 // same slot, homes 0 and 1
	sl.setFlags(foreign, lineGated|lineDirty)
	if got := sl.flagsOf(homed); got != 0 {
		t.Fatalf("homed line picked up the foreign line's flags: %03b", got)
	}
	sl.setFlags(homed, lineEvicting)
	if got := sl.flagsOf(foreign); got != lineGated|lineDirty {
		t.Fatalf("foreign flags = %03b, want gated|dirty", got)
	}
	sl.clearFlags(foreign, lineGated|lineDirty)
	if sl.foreign.Len() != 0 || sl.flagsOf(foreign) != 0 {
		t.Fatalf("cleared foreign line still held: %d entries", sl.foreign.Len())
	}
	if got := sl.flagsOf(homed); got != lineEvicting {
		t.Fatalf("homed flags = %03b, want evicting", got)
	}
}
