package fix

// Dead is used nowhere.
func Dead() {}

// Tested is used only by its own test.
func Tested() int { return 1 }

// Used is called from cmd/app.
func Used() {}

// Kept is used nowhere, but the peers list names what needs it.
func Kept() {}

// Shape declares Area, so no method named Area is flagged.
type Shape interface {
	Area() float64
}

// Square is a Shape whose Area no code calls by name.
type Square struct {
	Side float64
}

func (s Square) Area() float64 { return s.Side * s.Side }

// helper is unexported and used only by its own test.
func helper() int { return 2 }
