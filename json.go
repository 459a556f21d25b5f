package offramps

import (
	"encoding/json"

	"offramps/internal/capture"
	"offramps/internal/printer"
)

// JSON views for the report sinks (cmd/suite, cmd/experiments -json).
// Results serialize their summary metrics; the raw deposited part and the
// full capture streams are omitted — they are bulk simulation state, and
// captures already have their own CSV serialization (cmd/offramps).

// MarshalJSON renders the result summary: Part and the capture recordings
// are replaced by the capture window count, and the halt error becomes a
// string. The shadow fields stay nil so the bulk fields are omitted. A
// dual-tap result additionally reports each side's window count, so a
// sink can tell whether the two views stayed in step without shipping
// the full streams.
func (r *Result) MarshalJSON() ([]byte, error) {
	type alias Result
	aux := struct {
		*alias
		Part               *printer.Part        `json:"Part,omitempty"`
		Recording          *capture.Recording   `json:"Recording,omitempty"`
		ArduinoRecording   *capture.Recording   `json:"ArduinoRecording,omitempty"`
		RAMPSRecording     *capture.Recording   `json:"RAMPSRecording,omitempty"`
		Fingerprint        *capture.Fingerprint `json:"Fingerprint,omitempty"`
		ArduinoFingerprint *capture.Fingerprint `json:"ArduinoFingerprint,omitempty"`
		RAMPSFingerprint   *capture.Fingerprint `json:"RAMPSFingerprint,omitempty"`
		HaltError          string               `json:"HaltError,omitempty"`
		Windows            int                  `json:"Windows"`
		ArduinoWindows     int                  `json:"ArduinoWindows,omitempty"`
		RAMPSWindows       int                  `json:"RAMPSWindows,omitempty"`
	}{alias: (*alias)(r)}
	if r.HaltError != nil {
		aux.HaltError = r.HaltError.Error()
	}
	// Window counts come from the fingerprints, which every board run
	// keeps in either capture mode, so a result serializes to the same
	// bytes whether or not it recorded its trace.
	if r.Fingerprint != nil {
		aux.Windows = r.Fingerprint.Windows
	}
	if r.ArduinoFingerprint != nil && r.RAMPSFingerprint != nil {
		aux.ArduinoWindows = r.ArduinoFingerprint.Windows
		aux.RAMPSWindows = r.RAMPSFingerprint.Windows
	}
	return json.Marshal(aux)
}

// MarshalJSON renders a scenario outcome with its error as a string.
func (r ScenarioResult) MarshalJSON() ([]byte, error) {
	type alias ScenarioResult
	aux := struct {
		alias
		Err string `json:"Err,omitempty"`
	}{alias: alias(r)}
	if r.Err != nil {
		aux.Err = r.Err.Error()
	}
	return json.Marshal(aux)
}
