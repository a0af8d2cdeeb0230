package smartbadge

import (
	"bytes"
	"strings"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"ideal", "changepoint", "expavg", "max", "IDEAL"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestParseDPM(t *testing.T) {
	for _, s := range []string{"none", "timeout", "renewal", "oracle"} {
		if _, err := ParseDPM(s); err != nil {
			t.Errorf("ParseDPM(%q): %v", s, err)
		}
	}
	if _, err := ParseDPM("bogus"); err == nil {
		t.Error("bogus DPM accepted")
	}
}

func TestParseApplication(t *testing.T) {
	for _, s := range []string{"mp3", "mpeg", "mixed"} {
		if _, err := ParseApplication(s); err != nil {
			t.Errorf("ParseApplication(%q): %v", s, err)
		}
	}
	if _, err := ParseApplication("bogus"); err == nil {
		t.Error("bogus application accepted")
	}
}

// TestParseSpellingRule: the three run axes share one spelling rule — case
// is ignored and surrounding space trimmed — and Run canonicalises Options
// spelled that way to the same report.
func TestParseSpellingRule(t *testing.T) {
	checkParse(t, ParsePolicy, map[string]Policy{" ChangePoint": PolicyChangePoint, "MAX\t": PolicyMax})
	checkParse(t, ParseApplication, map[string]Application{" mp3": AppMP3, "Mixed ": AppMixed})
	checkParse(t, ParseDPM, map[string]DPMMode{" Renewal ": DPMRenewal, "TISMDP": DPMTISMDP})
	tr, err := MP3Trace(3, "A")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Options{Trace: tr, Application: AppMP3, Policy: PolicyExpAvg, DPM: DPMTimeout})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Options{Trace: tr, Application: " MP3", Policy: "ExpAvg", DPM: "Timeout "})
	if err != nil {
		t.Fatal(err)
	}
	if FormatResult(got) != FormatResult(want) {
		t.Error("spelled options give a different report")
	}
}

func checkParse[T ~string](t *testing.T, parse func(string) (T, error), cases map[string]T) {
	t.Helper()
	for in, want := range cases {
		if got, err := parse(in); err != nil || got != want {
			t.Errorf("parse(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

func TestTraceConstructors(t *testing.T) {
	if _, err := MP3Trace(1, "ACEFBD"); err != nil {
		t.Errorf("MP3Trace: %v", err)
	}
	if _, err := MP3Trace(1, "XYZ"); err == nil {
		t.Error("bad sequence accepted")
	}
	if _, err := MPEGTrace(1, "football"); err != nil {
		t.Errorf("MPEGTrace: %v", err)
	}
	if _, err := MPEGTrace(1, "t2"); err != nil {
		t.Errorf("MPEGTrace t2: %v", err)
	}
	if _, err := MPEGTrace(1, "casablanca"); err == nil {
		t.Error("unknown clip accepted")
	}
	if _, err := CombinedTrace(1); err != nil {
		t.Errorf("CombinedTrace: %v", err)
	}
}

func TestRunQuickstartPath(t *testing.T) {
	tr, err := MP3Trace(7, "AB")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Application: AppMP3, Policy: PolicyIdeal, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesDecoded == 0 || res.EnergyJ <= 0 {
		t.Error("empty result")
	}
	report := FormatResult(res)
	for _, want := range []string{"energy:", "mean frame delay:", "SA-1100"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunDefaults(t *testing.T) {
	tr, err := MP3Trace(8, "A")
	if err != nil {
		t.Fatal(err)
	}
	// Empty options select MP3 + change point + no DPM.
	res, err := Run(Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sleeps != 0 {
		t.Error("default DPM should be none")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("missing trace accepted")
	}
	tr, _ := MP3Trace(9, "A")
	if _, err := Run(Options{Trace: tr, Policy: "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	if _, err := Run(Options{Trace: tr, Application: "bogus"}); err == nil {
		t.Error("bogus application accepted")
	}
	if _, err := Run(Options{Trace: tr, DPM: "bogus"}); err == nil {
		t.Error("bogus DPM accepted")
	}
}

func TestRunWithTimelineAndBufferCap(t *testing.T) {
	cfg := `[{"label":"x","kind":"mpeg","use_default_gop":true,
	          "segments":[{"duration_s":30,"arrival_rate":24,"decode_rate_max":50}]}]`
	tr, err := CustomTrace(3, strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Application:    AppMPEG,
		Policy:         PolicyIdeal,
		Trace:          tr,
		BufferCap:      8,
		RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakQueue > 8 {
		t.Errorf("peak queue %d exceeds cap", res.PeakQueue)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("timeline not recorded")
	}
	strip := FormatTimeline(res, 60)
	if !strings.Contains(strip, "decode") {
		t.Error("timeline rendering incomplete")
	}
	if _, err := CustomTrace(1, strings.NewReader("{bad")); err == nil {
		t.Error("bad clip config accepted")
	}
}

func TestRunWithCustomBadge(t *testing.T) {
	var cfg bytes.Buffer
	if err := WriteDefaultBadgeConfig(&cfg); err != nil {
		t.Fatal(err)
	}
	// Halve the radio's listening power and re-run: total energy must drop.
	edited := strings.Replace(cfg.String(), `"idle_mw": 925`, `"idle_mw": 460`, 1)
	if edited == cfg.String() {
		t.Fatalf("badge config did not contain the WLAN idle row:\n%s", cfg.String())
	}
	tr, err := MP3Trace(6, "AB")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Options{Trace: tr, Policy: PolicyIdeal})
	if err != nil {
		t.Fatal(err)
	}
	custom, err := Run(Options{Trace: tr, Policy: PolicyIdeal, BadgeConfig: strings.NewReader(edited)})
	if err != nil {
		t.Fatal(err)
	}
	if custom.EnergyJ >= base.EnergyJ {
		t.Errorf("halved radio power did not reduce energy: %v vs %v", custom.EnergyJ, base.EnergyJ)
	}
	if _, err := Run(Options{Trace: tr, BadgeConfig: strings.NewReader("{bad")}); err == nil {
		t.Error("bad badge config accepted")
	}
}

func TestTraceCSVRoundTripViaFacade(t *testing.T) {
	tr, err := MP3Trace(5, "AB")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != len(tr.Frames) {
		t.Errorf("frames: %d vs %d", len(got.Frames), len(tr.Frames))
	}
}

func TestBatteryLifetime(t *testing.T) {
	tr, err := MP3Trace(12, "A")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Trace: tr, Policy: PolicyIdeal})
	if err != nil {
		t.Fatal(err)
	}
	life, err := BatteryLifetimeHours(res, DefaultBattery())
	if err != nil {
		t.Fatal(err)
	}
	// ~1.3 W from a 2 Wh-class pack: somewhere in the 0.5-3 hour band.
	if life < 0.5 || life > 3 {
		t.Errorf("lifetime = %v h, want 0.5-3 h band", life)
	}
	if _, err := BatteryLifetimeHours(nil, DefaultBattery()); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := BatteryLifetimeHours(res, Battery{}); err == nil {
		t.Error("invalid battery accepted")
	}
}

func TestRunWithDPMModes(t *testing.T) {
	tr, err := CombinedTrace(11)
	if err != nil {
		t.Fatal(err)
	}
	energies := map[DPMMode]float64{}
	for _, mode := range []DPMMode{DPMNone, DPMTimeout, DPMRenewal, DPMTISMDP, DPMOracle} {
		res, err := Run(Options{Application: AppMixed, Policy: PolicyIdeal, DPM: mode, Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		energies[mode] = res.EnergyJ
		if mode != DPMNone && res.Sleeps == 0 {
			t.Errorf("%s: never slept on the gap-rich combined trace", mode)
		}
	}
	if energies[DPMOracle] > energies[DPMNone] {
		t.Error("oracle DPM worse than none")
	}
	if energies[DPMRenewal] > energies[DPMNone] {
		t.Error("renewal DPM worse than none")
	}
	if energies[DPMTISMDP] > energies[DPMNone] {
		t.Error("TISMDP DPM worse than none")
	}
	// Oracle is the lower bound among the sleeping policies.
	if energies[DPMOracle] > energies[DPMRenewal]*1.001 {
		t.Errorf("oracle %v above renewal %v", energies[DPMOracle], energies[DPMRenewal])
	}
}
