from __future__ import annotations

import random

import pytest

from chainrank import EditSet, ParseError, Solution, make_instance
from chainrank.cli_io import (
    format_instance,
    format_solution,
    main,
    parse_instance,
    parse_solution,
    read_solution,
)
from conftest import random_instance

FIG1_TEXT = """chainrank v1 3 5
11000
11110
11111
"""


class TestInstanceFormat:
    def test_figure_one_file(self):
        inst = parse_instance(FIG1_TEXT)
        assert inst.num_students == 3 and inst.num_questions == 5
        assert inst.neighbors(2) == frozenset({1, 2, 3, 4})

    def test_write_read_round_trip(self):
        rng = random.Random(41)
        for _ in range(30):
            inst = random_instance(rng)
            text = format_instance(inst)
            assert parse_instance(text) == inst
            assert format_instance(parse_instance(text)) == text

    def test_orders_round_trip(self):
        inst = make_instance(2, 3, [(1, 2)], (2, 1), (3, 1, 2))
        assert parse_instance(format_instance(inst)) == inst

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\nchainrank v1 1 2\n# rows\n10\n"
        inst = parse_instance(text)
        assert inst.adjacency == ((1,),)

    def test_wrong_row_length_reports_line(self):
        text = "chainrank v1 2 3\n101\n10\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 3

    def test_missing_header_reports_first_line(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("11\n10\n")
        assert exc.value.line == 1


class TestSolutionFormat:
    def test_round_trip(self):
        sol = Solution(
            cost=2,
            student_order=(2, 1),
            question_order=(1, 2, 3),
            edits=EditSet.of([(1, 3)], [(2, 1)]),
            solver_tag="oracle.both.editing",
        )
        text = format_solution(sol, verified=True)
        parsed, verified = parse_solution(text)
        assert parsed == sol and verified is True
        assert format_solution(parsed, verified) == text

    def test_missing_field_rejected(self):
        sol = Solution(1, (1,), (1,), EditSet.of([(1, 1)]), "t")
        text = format_solution(sol, verified=False).replace("solver_tag: t\n", "")
        with pytest.raises(ParseError):
            parse_solution(text)


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT + "students: 1 2 3\nquestions: 1 2 3 4 5\n")
    return path


class TestCli:
    def test_recognize_ideal_instance(self, fig1_file, capsys):
        assert main(["recognize", "--input", str(fig1_file)]) == 0
        out = capsys.readouterr().out
        assert "IDEAL" in out and "student_order: 1 2 3" in out

    def test_recognize_rejects_crossing(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("chainrank v1 2 2\n10\n01\n")
        assert main(["recognize", "--input", str(path)]) == 2
        assert "NOT_IDEAL" in capsys.readouterr().out

    def test_solve_and_check_round_trip(self, fig1_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.txt"
        code = main([
            "solve", "--variant", "constrained", "--mode", "addition", "--k", "1",
            "--input", str(fig1_file), "--output", str(sol_path),
        ])
        assert code == 0
        assert "cost: 0" in capsys.readouterr().out
        code = main([
            "check", "--input", str(fig1_file), "--solution", str(sol_path),
            "--variant", "constrained", "--mode", "addition", "--k", "1",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "good_line, bad_line",
        [
            ("1 3", "1 x"),
            ("student_order: 1 2 3", "student_order: 1 two 3"),
            ("question_order: 1 2 3 4 5", "question_order: 1 2 3 4 5x"),
        ],
    )
    def test_check_rejects_non_integer_token(self, fig1_file, tmp_path, capsys, good_line, bad_line):
        sol = Solution(1, (1, 2, 3), (1, 2, 3, 4, 5), EditSet.of([(1, 3)]), "t")
        text = format_solution(sol, verified=False)
        assert f"\n{good_line}\n" in text
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(text.replace(f"\n{good_line}\n", f"\n{bad_line}\n"))
        code = main(["check", "--input", str(fig1_file), "--solution", str(sol_path)])
        assert code == 1
        assert "expected integers" in capsys.readouterr().err

    def test_check_catches_tampered_cost(self, fig1_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.txt"
        main([
            "solve", "--variant", "both", "--mode", "editing", "--k", "1",
            "--input", str(fig1_file), "--output", str(sol_path),
        ])
        sol, verified = read_solution(sol_path)
        tampered = Solution(sol.cost + 1, sol.student_order, sol.question_order, sol.edits, sol.solver_tag)
        sol_path.write_text(format_solution(tampered, verified))
        code = main(["check", "--input", str(fig1_file), "--solution", str(sol_path)])
        assert code == 2
        assert "FAIL cost_matches_edits" in capsys.readouterr().out

    def test_unconstrained_editing_refused_without_flag(self, fig1_file, capsys):
        code = main([
            "solve", "--variant", "unconstrained", "--mode", "editing", "--k", "1",
            "--input", str(fig1_file),
        ])
        assert code == 1
        assert "NP-hard" in capsys.readouterr().err

    def test_unconstrained_editing_with_flag(self, fig1_file, capsys):
        code = main([
            "solve", "--variant", "unconstrained", "--mode", "editing", "--k", "1",
            "--input", str(fig1_file), "--exponential-ok",
        ])
        assert code == 0
        assert "cost: 0" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert main(["solve", "--variant", "bogus", "--input", "x"]) == 1

    def test_gen_reduce_oracle_pipeline(self, tmp_path, capsys):
        inst_path = tmp_path / "gen.txt"
        code = main([
            "gen", "--students", "5", "--questions", "5", "--seed", "3",
            "--flips", "2", "--k-perturb", "1", "--output", str(inst_path),
        ])
        assert code == 0
        sol_path = tmp_path / "oracle.txt"
        code = main([
            "oracle", "--variant", "both", "--mode", "editing", "--k", "1",
            "--input", str(inst_path), "--output", str(sol_path),
        ])
        assert code == 0
        code = main([
            "check", "--input", str(inst_path), "--solution", str(sol_path),
            "--variant", "both", "--k", "1",
        ])
        assert code == 0

        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        red_path = tmp_path / "red.txt"
        assert main(["reduce", "--cnf", str(cnf), "--output", str(red_path)]) == 0
        out = capsys.readouterr().out
        assert "t_phi = 2" in out
        sol2 = tmp_path / "red_sol.txt"
        code = main([
            "solve", "--variant", "unconstrained", "--mode", "editing", "--k", "1",
            "--exponential-ok", "--input", str(red_path), "--output", str(sol2),
        ])
        assert code == 0
        assert "cost: 2" in capsys.readouterr().out

    def test_bench_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--variant", "constrained", "--mode", "editing",
            "--sizes", "6,8", "--ks", "0,1", "--seeds", "2",
            "--flip-prob", "0.2", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "variant,mode,n_students,n_questions,k,seed,cost,wall_ms"
        assert len(lines) == 1 + 2 * 2 * 2
