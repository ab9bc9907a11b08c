"""From raw sensor tracks to labeled 48-feature rows, one step at a time.

Synthesizes a single 60 s individual dining session, then walks the pipeline:
resample onto the fixed grids, lay 1 s windows on the 2 Hz cadence, extract
the six statistics per half and channel for every window at once, and attach
the time-to-bite label. Rows travel as columns of one WindowTable.
"""

from bitetiming.features import AXIS_NAMES, HALF_NAMES, STAT_NAMES, feature_names
from bitetiming.pipeline import extract_labeled_windows
from bitetiming.signals import IMU_RATE_HZ, MIC_RATE_HZ, resample_linear, slice_windows
from bitetiming.sim import synthesize_scenario


def main() -> None:
    scenario = synthesize_scenario("demo", "individual", 60.0, seed=[1])
    session = scenario.session
    arrivals = [f"{b.feeding_arrival_t:.1f}" for b in session.bites]
    print(f"session: {session.participant_id}, {session.imu_t[-1]:.0f} s, "
          f"{len(session.bites)} bites arriving at t = {arrivals}")
    print(f"raw tracks: imu {session.imu_t.size} samples, "
          f"mic {session.mic_t.size} samples (irregularly spaced)")

    imu = resample_linear(session.imu_t, session.imu_accel, IMU_RATE_HZ)
    mic = resample_linear(session.mic_t, session.mic_amp, MIC_RATE_HZ)
    print(f"resampled: imu {imu.values.shape} at {imu.rate_hz:.0f} Hz, "
          f"mic {mic.values.shape} at {mic.rate_hz:.0f} Hz")

    windows = slice_windows(imu, mic)
    print(f"windows: {len(windows)} (1 s long, ending every 0.5 s, "
          f"first ends at t={windows.end_t[0]}, "
          f"last at t={windows.end_t[-1]})")

    table = extract_labeled_windows(session)
    print(f"labeled rows: {len(table)}, features {table.features.shape} "
          f"(windows after the final bite carry no label and are dropped)\n")

    i = 13
    print(f"row at t={table.window_end_t[i]:.1f}: time to next bite "
          f"{table.time_to_bite[i]:.2f} s, user moving: {bool(table.motion_label[i])}")
    print("feature layout is half-major, channel, then statistic:")
    names = feature_names()
    vec = table.features[i]
    header = " ".join(f"{s:>8}" for s in STAT_NAMES)
    for h, half in enumerate(HALF_NAMES):
        print(f"  {half}: {'':>4}{header}")
        for a, axis in enumerate(AXIS_NAMES):
            base = (h * len(AXIS_NAMES) + a) * len(STAT_NAMES)
            vals = " ".join(f"{vec[base + s]:8.3f}" for s in range(len(STAT_NAMES)))
            assert names[base] == f"{half}.{axis}.{STAT_NAMES[0]}"
            print(f"      {axis:>4} {vals}")

    labels = table.time_to_bite
    print(f"\nlabel range across the session: {labels.min():.2f} .. "
          f"{labels.max():.2f} s (capped at 10 s during training)")


if __name__ == "__main__":
    main()
