package smartbadge_test

import (
	"fmt"
	"log"
	"strings"

	"smartbadge"
)

// Parsing helpers turn CLI strings into typed options.
func ExampleParsePolicy() {
	p, err := smartbadge.ParsePolicy("ChangePoint")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p)
	if _, err := smartbadge.ParsePolicy("guesswork"); err != nil {
		fmt.Println("rejected")
	}
	// Output:
	// changepoint
	// rejected
}

// The Table 2 catalogue drives MP3 workloads; sequences are label strings.
func ExampleMP3Trace() {
	trace, err := smartbadge.MP3Trace(1, "AC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(trace.Changes), "rate changes")
	// Output:
	// 2 rate changes
}

// Custom workloads load from JSON without recompiling.
func ExampleCustomTrace() {
	cfg := `[{"label": "podcast", "kind": "mp3", "sample_rate_khz": 32,
	          "segments": [{"duration_s": 60, "arrival_rate": 27.8, "decode_rate_max": 120}]}]`
	trace, err := smartbadge.CustomTrace(1, strings.NewReader(cfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("~%d frames per second\n", int(float64(len(trace.Frames))/trace.Duration+0.5))
	// Output:
	// ~29 frames per second
}

// Run simulates a workload under a DVS policy and DPM mode. (Energies depend
// on the reconstructed hardware table, so this example is not output-checked.)
func ExampleRun() {
	trace, err := smartbadge.MP3Trace(1, "ACEFBD")
	if err != nil {
		log.Fatal(err)
	}
	res, err := smartbadge.Run(smartbadge.Options{
		Application: smartbadge.AppMP3,
		Policy:      smartbadge.PolicyChangePoint,
		DPM:         smartbadge.DPMRenewal,
		Trace:       trace,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(smartbadge.FormatResult(res))
}

// Battery lifetime is the user-facing metric the paper motivates.
func ExampleBattery() {
	b := smartbadge.DefaultBattery()
	fmt.Printf("nominal energy: %.0f J\n", b.NominalEnergyJ())
	fmt.Printf("halving power more than doubles runtime: %.2fx\n", b.LifetimeGain(2.0, 1.0))
	// Output:
	// nominal energy: 6912 J
	// halving power more than doubles runtime: 2.14x
}

// The Table 5 experiment on the combined workload: the four power-management
// configurations the paper compares and the battery lifetime each buys.
func ExampleBatteryLifetimeHours() {
	trace, err := smartbadge.CombinedTrace(1)
	if err != nil {
		log.Fatal(err)
	}
	configs := []struct {
		name   string
		policy smartbadge.Policy
		dpm    smartbadge.DPMMode
	}{
		{"None (max clock, always on)", smartbadge.PolicyMax, smartbadge.DPMNone},
		{"DVS only", smartbadge.PolicyChangePoint, smartbadge.DPMNone},
		{"DPM only", smartbadge.PolicyMax, smartbadge.DPMRenewal},
		{"DVS + DPM", smartbadge.PolicyChangePoint, smartbadge.DPMRenewal},
	}
	baseline := 0.0
	fmt.Printf("%-28s %11s %6s %6s %11s\n", "configuration", "energy (kJ)", "factor", "sleeps", "battery (h)")
	for _, c := range configs {
		res, err := smartbadge.Run(smartbadge.Options{
			Application: smartbadge.AppMixed,
			Policy:      c.policy,
			DPM:         c.dpm,
			Trace:       trace,
		})
		if err != nil {
			log.Fatal(err)
		}
		if baseline == 0 {
			baseline = res.EnergyJ
		}
		hours, err := smartbadge.BatteryLifetimeHours(res, smartbadge.DefaultBattery())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %11.3f %6.2f %6d %11.1f\n",
			c.name, res.EnergyJ/1000, baseline/res.EnergyJ, res.Sleeps, hours)
	}
	// Output:
	// configuration                energy (kJ) factor sleeps battery (h)
	// None (max clock, always on)        5.769   1.00      0         1.1
	// DVS only                           5.672   1.02      0         1.1
	// DPM only                           1.802   3.20     16         4.0
	// DVS + DPM                          1.706   3.38     10         4.2
}
