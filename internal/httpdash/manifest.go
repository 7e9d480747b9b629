package httpdash

import (
	"fmt"
	"io"

	"ecavs/internal/dash"
)

// manifestInfo is the client-side view of the MPD.
type manifestInfo = dash.MPDInfo

// parseManifest decodes an MPD stream into client parameters.
func parseManifest(r io.Reader) (manifestInfo, error) {
	mpd, err := dash.ParseMPD(r)
	if err != nil {
		return manifestInfo{}, fmt.Errorf("parse: %w", err)
	}
	info, err := dash.InfoFromMPD(mpd)
	if err != nil {
		return manifestInfo{}, fmt.Errorf("info: %w", err)
	}
	return info, nil
}
