package tenantspec

import (
	"strings"
	"testing"
)

// TestLineCountingReader: offsets map to 1-based lines.
func TestLineCountingReader(t *testing.T) {
	r := &lineCountingReader{r: strings.NewReader("ab\ncd\nef")}
	buf := make([]byte, 3) // force multiple short reads
	for {
		if _, err := r.Read(buf); err != nil {
			break
		}
	}
	for _, tc := range []struct {
		off  int64
		want int
	}{{0, 1}, {1, 1}, {2, 1}, {3, 2}, {5, 2}, {6, 3}, {7, 3}, {100, 3}} {
		if got := r.lineAt(tc.off); got != tc.want {
			t.Fatalf("lineAt(%d) = %d, want %d", tc.off, got, tc.want)
		}
	}
}
