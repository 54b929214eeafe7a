package weakkeys_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInventoryListsEveryPackage keeps DESIGN.md's "System inventory"
// complete: every directory under cmd/ and internal/ has a row there.
func TestInventoryListsEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	dirs, _ := filepath.Glob("cmd/*")
	more, _ := filepath.Glob("internal/*")
	for _, dir := range append(dirs, more...) {
		if !strings.Contains(string(design), "| `"+filepath.ToSlash(dir)+"` |") {
			t.Errorf("DESIGN.md's System inventory has no row for %s", dir)
		}
	}
}
