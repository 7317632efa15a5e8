"""The README's experiment commands and library example run, the names it
lists exist, and its queueing table matches the presets."""

import math
import re
import shlex
from pathlib import Path

import sncalc
from sncalc import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _library_section() -> str:
    return README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_experiment_commands_run(tmp_path, capsys):
    # every `sncalc` line of the experiments' block, with its --out in tmp_path
    block = README.split("\nThe paper's experiments, one command each", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sncalc ")]
    assert commands
    for argv in commands:
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
        assert Path(argv[out]).read_text(encoding="utf-8").startswith("scenario_id,")


def test_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_listed_simulator_names_exist():
    listed = re.search(r"The simulator names \((.*?)\)", _library_section(), re.S).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert names
    for name in names:
        assert callable(getattr(sncalc, name))


def test_queueing_table_matches_the_presets():
    # P_over = P(Bin(K, q) > floor(C / p)), recomputed from each voice
    # preset's operating points: 0 where K <= floor(C / p), "< 1e-300"
    # below that, and else P_over and its log10 to 2 significant digits
    from scipy.stats import binom

    from sncalc.scenario import parse_scenario_file, resolve_scenario_path

    section = README.split("\n### Which of the paper's operating points can queue\n", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    table = {(preset.strip("`"), int(k)): cells for preset, ks, *cells in rows for k in ks.split(", ")}
    expected = set()
    for name in ("voice-fig3", "voice-fig4-H1", "voice-fig4-H2", "voice-fig4-H5", "voice-fig4-H10"):
        scenario = parse_scenario_file(resolve_scenario_path(name))
        source = scenario.mmoo_per_slot()
        most = math.floor(scenario.capacity_bits_per_slot() / source.peak_rate)
        assert most == 1562 and math.isclose(source.on_probability, 0.4)
        label = name if name == "voice-fig3" else "voice-fig4-H*"
        for n, m in scenario.flow_points():
            expected.add((label, n + m))
            p_over, log10 = table[label, n + m]
            if n + m <= most:
                assert (p_over, log10) == ("0", "peak-rate stable")
                continue
            exact = binom.logsf(most, n + m, source.on_probability) / math.log(10)
            if exact < -300:
                assert (p_over, log10) == ("< 1e-300", "< −300")
                continue
            assert p_over == f"{10 ** exact:.2g}"
            assert abs(float(log10.replace("−", "-")) - exact) <= 0.5 * 10 ** (math.floor(math.log10(-exact)) - 1)
    assert set(table) == expected
