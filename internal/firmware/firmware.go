package firmware

import (
	"fmt"

	"offramps/internal/gcode"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Firmware executes a compiled G-code program against the Arduino-side
// bus. Create one with New, load a program with Load, then Start it and
// drive the simulation engine until Done reports true. Every move runs
// from the program's Compiled plan; the firmware keeps no position or
// modal state of its own.
type Firmware struct {
	cfg    Config
	engine *sim.Engine
	bus    *signal.Bus

	prog gcode.Program
	pc   int
	// compiled is prog's pre-planned execution (see Compile);
	// executeMove reads each move's entry from it.
	compiled *Compiled

	hotend *heater
	bed    *heater

	fanDuty float64 // 0..1 commanded part-fan duty

	rng *sim.Rand

	motorsEnabled bool
	started       bool
	done          bool
	killed        bool
	err           error

	executed int
	unknown  int
	doneAt   sim.Time
	// startedAt is when Start ran, the control ticker's origin.
	startedAt sim.Time
	statusLog []string

	uart *uartTx

	stopControl func()
	stopFanPWM  func()

	// Scheduling fast-path state: cached method values (one bound func
	// instead of a fresh allocation per dispatch), the recycled step-train
	// cache, the part-fan PWM gate target, and the cached fan line.
	nextFn        func()
	executeNextFn func()
	trains        *TrainCache
	move          [signal.AxisE]signal.Train // the trains of the move being planned
	fan           fanGate
	fanLine       *signal.Line
}

// fanGate ends a part-fan software-PWM window through the engine's
// allocation-free fast path.
type fanGate struct{ fw *Firmware }

// FireEdge implements sim.EdgeTarget: it drops the fan gate unless a newer
// window has raised the duty to full.
func (g *fanGate) FireEdge(uint64) {
	if g.fw.fanDuty < 0.999 {
		g.fw.fanLine.Set(signal.Low)
	}
}

// New builds a firmware instance attached to the Arduino-side bus.
func New(engine *sim.Engine, bus *signal.Bus, cfg Config) (*Firmware, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fw := &Firmware{
		cfg:    cfg,
		engine: engine,
		bus:    bus,
		rng:    sim.NewRand(cfg.Seed),
		hotend: newHeater("hotend", bus.Line(signal.PinHotend), bus.ThermHotend, cfg.HotendMaxTemp, cfg.HotendPID, cfg),
		bed:    newHeater("bed", bus.Line(signal.PinBed), bus.ThermBed, cfg.BedMaxTemp, cfg.BedPID, cfg),
		uart:   newUARTTx(engine, bus.Line(signal.PinUARTTx), cfg.UARTBaud),
	}
	fw.nextFn = fw.next
	fw.executeNextFn = fw.executeNext
	fw.trains = cfg.Trains
	if fw.trains == nil {
		fw.trains = NewTrainCache()
	}
	fw.fan = fanGate{fw: fw}
	fw.fanLine = bus.Line(signal.PinFan)
	return fw, nil
}

// Load sets the program to execute, replacing any previously loaded
// one. It must be called before Start. plan is prog's compiled plan; a
// nil plan compiles prog under the firmware's own config, and a compile
// error is returned. A given plan must have been compiled from the same
// program under the same motion config: its command count is checked,
// full content identity is the caller's contract (the campaign keys
// plans by program hash).
func (fw *Firmware) Load(prog gcode.Program, plan *Compiled) error {
	if plan == nil {
		var err error
		if plan, err = Compile(prog, fw.cfg); err != nil {
			return err
		}
	}
	if len(prog) != len(plan.prog) {
		return fmt.Errorf("firmware: compiled plan is for a %d-command program, got %d commands", len(plan.prog), len(prog))
	}
	fw.prog, fw.compiled = prog, plan
	return nil
}

// Start begins execution: the temperature control loop, fan PWM, and the
// command dispatcher. Calling Start twice is an error.
func (fw *Firmware) Start() error {
	if fw.started {
		return fmt.Errorf("firmware: already started")
	}
	if len(fw.prog) == 0 {
		return fmt.Errorf("firmware: no program loaded")
	}
	fw.started = true
	fw.startedAt = fw.engine.Now()
	fw.stopControl = fw.engine.Ticker(fw.cfg.ControlPeriod, fw.controlTick)
	fw.stopFanPWM = fw.engine.Ticker(fw.cfg.FanPWMPeriod, fw.fanPWMTick)
	fw.engine.After(fw.dispatchDelay(), fw.executeNextFn)
	return nil
}

// Done reports whether the program finished or the machine was killed.
func (fw *Firmware) Done() bool { return fw.done }

// FinishedAt reports the simulation time at which the program completed or
// the machine was killed (zero while still running).
func (fw *Firmware) FinishedAt() sim.Time { return fw.doneAt }

// Err returns the halt reason if the machine was killed, else nil.
func (fw *Firmware) Err() error { return fw.err }

// Executed reports the number of commands dispatched.
func (fw *Firmware) Executed() int { return fw.executed }

// UnknownCommands reports how many commands were ignored as unsupported.
func (fw *Firmware) UnknownCommands() int { return fw.unknown }

// StatusLog returns messages the firmware logged (M117, M105, errors).
func (fw *Firmware) StatusLog() []string { return fw.statusLog }

// FanDuty returns the commanded part-fan duty in [0,1].
func (fw *Firmware) FanDuty() float64 { return fw.fanDuty }

// MotorsEnabled reports whether the EN lines are asserted.
func (fw *Firmware) MotorsEnabled() bool { return fw.motorsEnabled }

// logStatus appends to the firmware's message log and mirrors it onto the
// display UART.
func (fw *Firmware) logStatus(msg string) {
	fw.statusLog = append(fw.statusLog, msg)
	fw.uart.sendString(msg + "\n")
}

// halt kills the machine: heaters off, motors off, execution stops. This
// is Marlin's kill() — reached via thermal protection from the control
// ticker, or from a failed homing, while no step train runs.
func (fw *Firmware) halt(err error) {
	if fw.killed {
		return
	}
	if s := fw.bus.TrainSink(); s != nil {
		s.Halt()
	}
	fw.killed = true
	fw.done = true
	fw.doneAt = fw.engine.Now()
	fw.err = err
	fw.hotend.trip()
	fw.bed.trip()
	fw.setMotors(false)
	if fw.stopControl != nil {
		fw.stopControl()
	}
	if fw.stopFanPWM != nil {
		fw.stopFanPWM()
	}
	fw.bus.Line(signal.PinFan).Set(signal.Low)
	fw.logStatus("KILLED: " + err.Error())
}

// finish completes the program normally.
func (fw *Firmware) finish() {
	if fw.done {
		return
	}
	fw.done = true
	fw.doneAt = fw.engine.Now()
	// Leave the control loops running: a real printer keeps regulating
	// after a print; the session owner decides when to stop simulating.
	fw.logStatus("print finished")
}

// dispatchDelay returns the inter-command latency including time noise.
func (fw *Firmware) dispatchDelay() sim.Time {
	d := fw.cfg.InterCommandDelay
	if fw.cfg.TimeNoise > 0 {
		d += sim.Time(fw.rng.Int63n(int64(fw.cfg.TimeNoise) + 1))
	}
	return d
}

// next schedules the following command after the standard dispatch delay.
func (fw *Firmware) next() {
	if fw.killed {
		return
	}
	fw.engine.After(fw.dispatchDelay(), fw.executeNextFn)
}

// executeNext dispatches one command.
func (fw *Firmware) executeNext() {
	if fw.killed || fw.done {
		return
	}
	// Every command may touch the STEP/DIR/EN lines: deferred step
	// edges that precede it land first.
	if s := fw.bus.TrainSink(); s != nil {
		s.Sync()
	}
	// Skip blank/comment lines without consuming dispatch latency.
	for fw.pc < len(fw.prog) && fw.prog[fw.pc].Empty() {
		fw.pc++
	}
	if fw.pc >= len(fw.prog) {
		fw.finish()
		return
	}
	cmd := fw.prog[fw.pc]
	fw.pc++
	fw.executed++

	switch cmd.Code {
	case "G0", "G1":
		fw.executeMove()
	case "G4":
		fw.executeDwell(cmd)
	case "G28":
		fw.executeHoming(cmd)
	case "G90", "G91", "M82", "M83", "G92":
		// Frame and mode changes are folded into the compiled plan.
		fw.next()
	case "M104":
		fw.hotend.setTarget(cmd.FloatDefault('S', 0))
		fw.next()
	case "M140":
		fw.bed.setTarget(cmd.FloatDefault('S', 0))
		fw.next()
	case "M109":
		fw.hotend.setTarget(cmd.FloatDefault('S', 0))
		fw.waitForHeater(fw.hotend)
	case "M190":
		fw.bed.setTarget(cmd.FloatDefault('S', 0))
		fw.waitForHeater(fw.bed)
	case "M106":
		fw.fanDuty = clamp01(cmd.FloatDefault('S', 255) / 255)
		fw.next()
	case "M107":
		fw.fanDuty = 0
		fw.next()
	case "M17":
		fw.setMotors(true)
		fw.next()
	case "M18", "M84":
		fw.setMotors(false)
		fw.next()
	case "M105":
		fw.logStatus(fmt.Sprintf("ok T:%.1f /%.1f B:%.1f /%.1f",
			fw.hotend.measured, fw.hotend.target, fw.bed.measured, fw.bed.target))
		fw.next()
	case "M117":
		fw.logStatus(cmd.Comment)
		fw.next()
	default:
		// Marlin echoes "Unknown command" and carries on; slicers emit
		// plenty of metadata codes (M115, M73, M201...).
		fw.unknown++
		fw.next()
	}
}

// executeDwell handles G4 (P milliseconds or S seconds).
// Compile has bounded the duration; a negative one runs as none.
func (fw *Firmware) executeDwell(cmd gcode.Command) {
	var d float64
	if v, ok := cmd.Float('P'); ok {
		d = v * float64(sim.Millisecond)
	} else if v, ok := cmd.Float('S'); ok {
		d = v * float64(sim.Second)
	}
	fw.engine.After(sim.Time(max(d, 0)), fw.nextFn)
}

// waitForHeater polls until the heater reaches its setpoint (M109/M190).
func (fw *Firmware) waitForHeater(h *heater) {
	var poll func()
	poll = func() {
		if fw.killed {
			return
		}
		if h.reached(fw.cfg.ReachHysteresis) {
			fw.next()
			return
		}
		fw.engine.After(fw.cfg.ControlPeriod, poll)
	}
	fw.engine.After(fw.cfg.ControlPeriod, poll)
}

// setMotors drives all EN lines (A4988 enable is active-low).
func (fw *Firmware) setMotors(on bool) {
	fw.motorsEnabled = on
	level := signal.High
	if on {
		level = signal.Low
	}
	for _, a := range signal.Axes {
		fw.bus.Enable(a).Set(level)
	}
}

// executeMove schedules a G0/G1 from its compiled plan entry.
func (fw *Firmware) executeMove() {
	entry := fw.compiled.entries[fw.pc-1]
	if !entry.resolved {
		fw.next() // feedrate-only or zero-length move
		return
	}
	if !fw.motorsEnabled {
		fw.setMotors(true)
	}
	if !entry.motion {
		fw.next()
		return
	}
	pm := entry.pm

	// Set DIR lines now; first step happens ≥ DirSetup later.
	for i, a := range signal.Axes {
		if pm.axes[i].steps == 0 {
			continue
		}
		level := signal.Low
		if pm.axes[i].negative {
			level = signal.High
		}
		fw.bus.Dir(a).Set(level)
	}

	// Emit every step pulse through a per-axis step train. The move's
	// trains go to the bus's train sink together, which takes all of
	// them (no engine events) or none; else each runs eagerly with O(1)
	// pending engine work. Timestamps match either way.
	now := fw.engine.Now()
	base := now + fw.cfg.DirSetup
	end := base + pm.duration() + fw.cfg.StepPulseWidth
	move := fw.move[:0]
	for i, a := range signal.Axes {
		n := pm.axes[i].steps
		if n == 0 {
			continue
		}
		t := fw.acquireTrain()
		*t = stepTrain{
			fw:    fw,
			line:  fw.bus.Step(a),
			prof:  pm.prof,
			base:  base,
			width: fw.cfg.StepPulseWidth,
			n:     n,
		}
		move = append(move, signal.Train{
			Axis:   a,
			Rises:  t,
			N:      n,
			Width:  t.width,
			Issued: now,
			MinGap: pm.minGap(n),
			Until:  end,
			Kill:   signal.Tick{Origin: fw.startedAt, Period: fw.cfg.ControlPeriod},
		})
	}
	if sink := fw.bus.TrainSink(); sink == nil || !sink.Accept(move) {
		for _, tr := range move {
			t := tr.Rises.(*stepTrain)
			fw.engine.ScheduleEdge(t.RiseAt(0), t, trainRise)
		}
	}

	fw.engine.Schedule(end, fw.nextFn)
}

// controlTick runs both heater PID loops and their PWM windows.
func (fw *Firmware) controlTick(now sim.Time) {
	dt := fw.cfg.ControlPeriod.Seconds()
	for _, h := range []*heater{fw.hotend, fw.bed} {
		if err := h.control(now, dt); err != nil {
			fw.halt(err)
			return
		}
		fw.drivePWM(h)
	}
}

// drivePWM emits one software-PWM window for a heater.
func (fw *Firmware) drivePWM(h *heater) {
	switch {
	case h.duty <= 0.001:
		h.pin.Set(signal.Low)
	case h.duty >= 0.999:
		h.pin.Set(signal.High)
	default:
		h.pin.Set(signal.High)
		onTime := sim.Time(float64(fw.cfg.PWMPeriod) * h.duty)
		// The heater's FireEdge only drops the gate if a newer window
		// hasn't raised the duty to full; the next window re-raises it
		// anyway.
		fw.engine.AfterEdge(onTime, h, 0)
	}
}

// fanPWMTick emits one software-PWM window for the part fan.
func (fw *Firmware) fanPWMTick(sim.Time) {
	fan := fw.fanLine
	switch {
	case fw.fanDuty <= 0.001:
		fan.Set(signal.Low)
	case fw.fanDuty >= 0.999:
		fan.Set(signal.High)
	default:
		fan.Set(signal.High)
		onTime := sim.Time(float64(fw.cfg.FanPWMPeriod) * fw.fanDuty)
		fw.engine.AfterEdge(onTime, &fw.fan, 0)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
