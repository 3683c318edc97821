package migrate

import "testing"

func TestReplicationConfigValidate(t *testing.T) {
	if err := DefaultReplicationConfig().Validate(); err != nil {
		t.Fatalf("disabled default invalid: %v", err)
	}
	ok := DefaultReplicationConfig()
	ok.Enable = true
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	mods := []func(*ReplicationConfig){
		func(c *ReplicationConfig) { c.MinSharers = 0 },
		func(c *ReplicationConfig) { c.MaxWriteFrac = -0.1 },
		func(c *ReplicationConfig) { c.MaxWriteFrac = 1.1 },
		func(c *ReplicationConfig) { c.CapacityFrac = 0 },
		func(c *ReplicationConfig) { c.CapacityFrac = 1.5 },
		func(c *ReplicationConfig) { c.WritePenaltyCycles = -1 },
	}
	for i, mod := range mods {
		c := ok
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWriteFracTracking(t *testing.T) {
	c := NewPageCounts(8, 4)
	c.Record(0, 1)
	c.Record(1, 1)
	c.AddWrites(1, 1)
	if got := c.WriteFrac(1); got != 0.5 {
		t.Fatalf("WriteFrac = %v", got)
	}
	if c.WriteFrac(2) != 0 {
		t.Fatal("untouched page WriteFrac != 0")
	}
	// AddInto carries writes.
	dst := NewPageCounts(8, 4)
	c.AddInto(dst)
	if dst.WriteFrac(1) != 0.5 {
		t.Fatal("AddInto lost writes")
	}
}

func TestReplicationSetSelection(t *testing.T) {
	total := NewPageCounts(100, 16)
	// Page 0: hot, widely shared, read-only -> replicate.
	for s := 0; s < 16; s++ {
		for i := 0; i < 100; i++ {
			total.Record(s, 0)
		}
	}
	// Page 1: widely shared but write-heavy -> excluded.
	for s := 0; s < 16; s++ {
		for i := 0; i < 100; i++ {
			total.Record(s, 1)
		}
	}
	total.AddWrites(1, 800)
	// Page 2: read-only but private -> excluded.
	for i := 0; i < 1000; i++ {
		total.Record(3, 2)
	}
	cfg := DefaultReplicationConfig()
	cfg.Enable = true
	set := ReplicationSet(total, cfg)
	if !set[0] {
		t.Error("hot read-only shared page not replicated")
	}
	if set[1] {
		t.Error("write-heavy page replicated")
	}
	if set[2] {
		t.Error("private page replicated")
	}
}

func TestReplicationSetDisabled(t *testing.T) {
	total := NewPageCounts(4, 4)
	set := ReplicationSet(total, DefaultReplicationConfig()) // Enable=false
	for _, v := range set {
		if v {
			t.Fatal("disabled config replicated pages")
		}
	}
}

func TestReplicationSetCapacity(t *testing.T) {
	total := NewPageCounts(100, 16)
	for pg := uint32(0); pg < 100; pg++ {
		for s := 0; s < 16; s++ {
			for i := 0; i <= int(pg); i++ { // hotter with higher page id
				total.Record(s, pg)
			}
		}
	}
	cfg := DefaultReplicationConfig()
	cfg.Enable = true
	cfg.CapacityFrac = 0.10
	set := ReplicationSet(total, cfg)
	n := 0
	for _, v := range set {
		if v {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("replicated %d pages, budget 10", n)
	}
	// The hottest pages (highest ids) must be the ones selected.
	for pg := 90; pg < 100; pg++ {
		if !set[pg] {
			t.Fatalf("hottest page %d not selected", pg)
		}
	}
}
