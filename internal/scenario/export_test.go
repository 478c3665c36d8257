package scenario

import (
	"encoding/json"
	"io"
)

// Save writes the scenario as indented JSON (the same form Load reads).
func Save(w io.Writer, s *Scenario) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
