package e2mc

import (
	"reflect"
	"testing"

	"repro/internal/compress"
)

// trainTestTable builds a table over a deterministic mix of skewed and raw
// symbols, so both frequent entries and escapes are exercised.
func trainTestTable(t *testing.T) *Table {
	t.Helper()
	tr := NewTrainer()
	block := make([]byte, compress.BlockSize)
	for b := 0; b < 64; b++ {
		for i := 0; i < compress.SymbolsPerBlock; i++ {
			// Heavy skew toward a few symbols plus a tail of rare ones.
			v := uint16(i % 7)
			if (b+i)%13 == 0 {
				v = uint16(b*251 + i*17)
			}
			block[2*i] = byte(v)
			block[2*i+1] = byte(v >> 8)
		}
		tr.Sample(block)
	}
	tab, err := tr.Build(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableMarshalRoundTrip(t *testing.T) {
	tab := trainTestTable(t)
	data, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, tab) {
		t.Error("unmarshalled table differs from the original")
	}
	for sym := 0; sym < 1<<16; sym++ {
		if got.SymbolBits(uint16(sym)) != tab.SymbolBits(uint16(sym)) {
			t.Fatalf("SymbolBits(%d) differs after round trip", sym)
		}
	}
	// A re-marshal must be byte-identical (the store's warm-run guarantee).
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, data) {
		t.Error("re-marshalled table bytes differ")
	}
}

func TestTableUnmarshalRejectsCorruption(t *testing.T) {
	tab := trainTestTable(t)
	data, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// mutate returns a copy of the valid record with one byte replaced.
	mutate := func(i int, b byte) []byte {
		c := append([]byte(nil), data...)
		c[i] = b
		return c
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       data[:4],
		"truncated":   data[:len(data)-3],
		"trailing":    append(append([]byte(nil), data...), 0),
		"bad version": mutate(0, 99),
		// maxLen bounds: 0 and 255 both reject (an unbounded maxLen would
		// size the decode LUT, so the bound is a memory-safety check, not
		// cosmetics — these bytes arrive over the network via slcd).
		"zero maxlen":      mutate(1, 0),
		"oversized maxlen": mutate(1, 255),
		// One past lutMaxLen: every table decodes through a LUT, so a
		// maxLen that would need the reference decoder rejects.
		"maxLen 17 rejects": mutate(1, 17),
		// Declared entry count inconsistent with the payload length.
		"huge n": mutate(3, 0xff),
	}
	// Kraft violation: all code lengths 1.
	bad := append([]byte(nil), data...)
	for i := 6 + 2*len(tab.syms); i < len(bad); i++ {
		bad[i] = 1
	}
	cases["kraft violation"] = bad
	// Duplicate symbol: entry 1 repeats entry 0's symbol.
	dup := append([]byte(nil), data...)
	copy(dup[8:10], dup[6:8])
	cases["duplicate symbol"] = dup
	for name, c := range cases {
		var got Table
		if err := got.UnmarshalBinary(c); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted corrupt record", name)
		}
	}
}

// TestBuildRejectsMaxLenBeyondLUT pins the training-side twin of the
// record's maxLen bound: a table always gets a decode LUT.
func TestBuildRejectsMaxLenBeyondLUT(t *testing.T) {
	tr := NewTrainer()
	tr.Sample(make([]byte, compress.BlockSize))
	if _, err := tr.Build(0, lutMaxLen+1); err == nil {
		t.Errorf("Build(0, %d) accepted a maxLen beyond the LUT bound", lutMaxLen+1)
	}
	if _, err := tr.Build(0, lutMaxLen); err != nil {
		t.Errorf("Build(0, %d): %v", lutMaxLen, err)
	}
}

// FuzzTableUnmarshal hammers UnmarshalBinary with arbitrary bytes: it must
// never panic or allocate absurdly — table records become network-reachable
// through slcd's result store path — and any input it does accept must
// describe a usable, re-marshallable table.
func FuzzTableUnmarshal(f *testing.F) {
	tr := NewTrainer()
	block := make([]byte, compress.BlockSize)
	for b := 0; b < 64; b++ {
		for i := 0; i < compress.SymbolsPerBlock; i++ {
			v := uint16(i % 7)
			if (b+i)%13 == 0 {
				v = uint16(b*251 + i*17)
			}
			block[2*i] = byte(v)
			block[2*i+1] = byte(v >> 8)
		}
		tr.Sample(block)
	}
	if tab, err := tr.Build(64, 0); err == nil {
		if data, err := tab.MarshalBinary(); err == nil {
			f.Add(data)
			// Seed near-miss corruptions of a valid record.
			for i := 0; i < len(data) && i < 16; i++ {
				c := append([]byte(nil), data...)
				c[i] ^= 0xff
				f.Add(c)
			}
			f.Add(data[:len(data)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{3, 15, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table
		if err := tab.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted: the table must be usable and round-trip stably.
		for sym := 0; sym < 256; sym++ {
			tab.SymbolBits(uint16(sym))
		}
		out, err := tab.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted record does not re-marshal: %v", err)
		}
		var again Table
		if err := again.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-marshalled record rejected: %v", err)
		}
	})
}
