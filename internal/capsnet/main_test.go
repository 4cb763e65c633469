package capsnet

import (
	"os"
	"testing"

	"pimcapsnet/internal/testutil"
)

// TestMain arms the goroutine-leak net: a Network that ran a forward
// pass owns chunk workers until Close, so a test that forgets to close
// one fails the whole binary.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyNoLeaks(m))
}

// newTestNet builds a network from cfg, failing tb on a config error,
// and closes it when the test ends.
func newTestNet(tb testing.TB, cfg Config) *Network {
	tb.Helper()
	net, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(net.Close)
	return net
}
