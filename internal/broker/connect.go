package broker

import (
	"crypto/x509"
	"fmt"
	"os"
)

// Connect is how every process in the tree reaches a broker server: plain
// TCP, or TLS verified against the CA PEM at caPath when one is given,
// behind a connection that redials with backoff so a webservice restart or
// network blip does not take the caller down — consumers resubscribe and
// unacked deliveries are redelivered. The first dial happens on first use.
func Connect(addr, caPath string) (*ReconnectingConn, error) {
	var roots *x509.CertPool
	if caPath != "" {
		pemData, err := os.ReadFile(caPath)
		if err != nil {
			return nil, fmt.Errorf("broker: CA: %w", err)
		}
		if roots, err = PoolFromPEM(pemData); err != nil {
			return nil, fmt.Errorf("broker: CA %s: %w", caPath, err)
		}
	}
	return NewReconnecting(func() (Conn, error) {
		var bc *Client
		var err error
		if roots == nil {
			bc, err = Dial(addr)
		} else {
			bc, err = DialTLS(addr, roots)
		}
		if err != nil {
			return nil, err
		}
		return bc.AsConn(), nil
	})
}
