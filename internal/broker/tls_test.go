package broker

import (
	"crypto/x509"
	"testing"
	"time"
)

func newTLSServer(t *testing.T) (*Server, *x509.CertPool, *Broker) {
	t.Helper()
	cert, pool, err := GenerateIdentity()
	if err != nil {
		t.Fatal(err)
	}
	b := New()
	s, err := ServeTLS(b, "127.0.0.1:0", cert)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	return s, pool, b
}

func TestTLSPublishConsume(t *testing.T) {
	s, pool, _ := newTLSServer(t)
	c, err := DialTLS(s.Addr(), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Declare("secure"); err != nil {
		t.Fatal(err)
	}
	rc, err := c.Consume("secure", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := publish(c.AsConn(), "secure", []byte("encrypted payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-rc.Messages():
		if string(m.Body) != "encrypted payload" {
			t.Errorf("body = %q", m.Body)
		}
		rc.Ack(m.Tag)
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery over TLS")
	}
}

func TestTLSRejectsUntrustedClient(t *testing.T) {
	s, _, _ := newTLSServer(t)
	// A client with an empty trust pool must refuse the server cert.
	empty := x509.NewCertPool()
	if c, err := DialTLS(s.Addr(), empty); err == nil {
		// TLS handshakes may complete lazily; force a round trip.
		defer c.Close()
		if perr := c.ping(); perr == nil {
			t.Error("untrusted server accepted")
		}
	}
}

func TestTLSRejectsPlaintextClient(t *testing.T) {
	s, _, _ := newTLSServer(t)
	c, err := Dial(s.Addr()) // plaintext dial against TLS listener
	if err == nil {
		defer c.Close()
		if perr := c.ping(); perr == nil {
			t.Error("plaintext client worked against TLS broker")
		}
	}
}

func TestGenerateIdentityDistinct(t *testing.T) {
	c1, _, err := GenerateIdentity()
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := GenerateIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if c1.Leaf.SerialNumber.Cmp(c2.Leaf.SerialNumber) == 0 {
		t.Error("identities share a serial number")
	}
	// Cross-trust fails: pool of cert1 does not verify cert2.
	_, pool1, _ := GenerateIdentity()
	b := New()
	defer b.Close()
	s, err := ServeTLS(b, "127.0.0.1:0", c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if c, err := DialTLS(s.Addr(), pool1); err == nil {
		defer c.Close()
		if perr := c.ping(); perr == nil {
			t.Error("cross-identity trust succeeded")
		}
	}
}
