package artifact

import (
	"strings"
	"testing"
)

func TestCheckSchemaMatch(t *testing.T) {
	if err := CheckSchema("positres-aggregate/v1", "positres-aggregate/v1"); err != nil {
		t.Fatalf("matching schema rejected: %v", err)
	}
}

func TestCheckSchemaMismatch(t *testing.T) {
	err := CheckSchema("positres-aggregate/v2", "positres-aggregate/v1")
	if err == nil {
		t.Fatal("version bump accepted")
	}
	for _, want := range []string{"positres-aggregate/v2", "positres-aggregate/v1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestCheckSchemaEmpty(t *testing.T) {
	err := CheckSchema("", "positres-aggregate/v1")
	if err == nil {
		t.Fatal("missing tag accepted")
	}
	if !strings.Contains(err.Error(), "no schema tag") {
		t.Errorf("error %q does not explain the missing tag", err)
	}
}
