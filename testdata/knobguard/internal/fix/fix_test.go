package fix

import "testing"

func TestTestOnly(t *testing.T) {
	if c := New(Config{TestOnly: 2}, Spec{}); c.TestOnly != 2 {
		t.Fatal("TestOnly")
	}
}
