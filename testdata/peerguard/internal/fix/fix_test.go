package fix

import "testing"

func TestTested(t *testing.T) {
	if Tested() != 1 || helper() != 2 {
		t.Fatal("Tested")
	}
}
