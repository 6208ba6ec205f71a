package a

import "testing"

func TestTestOnly(t *testing.T) {
	c := DefaultConfig()
	c.TestOnly = 1
	if c.TestOnly != 1 {
		t.Fatal("unset")
	}
}
