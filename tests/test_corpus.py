import json
import logging

import pytest
from hypothesis import example, given, strategies as st

from taskshift.corpus import (
    GradeBucket,
    Vacancy,
    department_fte,
    join_salary,
    load_reference_tables,
    map_grade,
    normalize_grade_text,
    parse_vacancies,
    scrub_pii,
)
from taskshift.corpus import _EMAIL_RE, _PHONE_RE
from taskshift.errors import DataError


def record(vacancy_id="V1", **overrides):
    base = {
        "vacancy_id": vacancy_id,
        "title": "Officer",
        "department": "HO",
        "grade_raw": "Executive Officer",
        "profession": "Policy",
        "posting_date": "2023-01-02",
        "closing_date": "2023-01-20",
        "job_summary": "Summary text.",
        "job_description": "Description text.",
    }
    base.update(overrides)
    return base


def lines(*records):
    return [json.dumps(r) for r in records]


class TestParseVacancies:
    def test_three_well_formed_records(self):
        parsed = parse_vacancies(lines(record("A"), record("B"), record("C")))
        assert [v.vacancy_id for v in parsed.vacancies] == ["A", "B", "C"]
        assert parsed.issues == []

    def test_missing_vacancy_id_skipped_with_diagnostic(self):
        bad = record()
        del bad["vacancy_id"]
        parsed = parse_vacancies(lines(record("A"), bad))
        assert [v.vacancy_id for v in parsed.vacancies] == ["A"]
        assert len(parsed.issues) == 1
        assert "vacancy_id" in parsed.issues[0].reason

    def test_duplicate_id_skipped(self):
        parsed = parse_vacancies(lines(record("A"), record("A")))
        assert len(parsed.vacancies) == 1
        assert "duplicate" in parsed.issues[0].reason

    def test_both_text_fields_empty_skipped(self):
        parsed = parse_vacancies(lines(record("A", job_summary="", job_description=" ")))
        assert parsed.vacancies == []
        assert len(parsed.issues) == 1

    def test_invalid_json_line_skipped(self):
        parsed = parse_vacancies(['{"vacancy_id": broken', json.dumps(record("B"))])
        assert [v.vacancy_id for v in parsed.vacancies] == ["B"]
        assert "JSON" in parsed.issues[0].reason

    def test_advert_dates_are_ignored(self):
        # no stage reads the dates, so one that does not parse drops no advert
        undated = record("B")
        del undated["posting_date"], undated["closing_date"]
        parsed = parse_vacancies(lines(record("A", posting_date="31/02/2023"), undated))
        assert [v.vacancy_id for v in parsed.vacancies] == ["A", "B"]
        assert parsed.issues == []
        assert not {"posting_date", "closing_date"} & set(parsed.vacancies[0].to_record())

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(DataError):
            parse_vacancies(tmp_path / "missing.jsonl")

    def test_count_preserved_on_fixture_corpus(self, data_dir):
        parsed = parse_vacancies(data_dir / "corpus.jsonl")
        assert len(parsed.vacancies) == 10
        assert parsed.issues == []

    def test_pii_scrubbed_at_ingest(self):
        parsed = parse_vacancies(
            lines(
                record(
                    job_description="Email jo.bloggs@example.gov.uk or call 020 7946 0958 now.",
                    job_summary="Ring +44 7700 900123 for details",
                )
            )
        )
        vacancy = parsed.vacancies[0]
        assert "@" not in vacancy.job_description
        assert "0958" not in vacancy.job_description
        assert "900123" not in vacancy.job_summary
        assert "now." in vacancy.job_description

    def test_scrub_keeps_ordinary_numbers(self):
        text = "Work 37 hours across 3 sites from 2019 onwards."
        assert scrub_pii(text) == text

    # ASCII and non-ASCII decimal digits (Arabic-Indic, Devanagari, fullwidth)
    # match the patterns' \d as well
    @given(st.text(alphabet=st.sampled_from(list("0179٣०５@. +()-aZ_\t")), max_size=80))
    @example("call ٠٧٧٠٠ ٩٠٠١٢٣ now")  # a phone number in Arabic-Indic digits only
    @example("write to jo.b@example.org")
    def test_guarded_scrub_equals_both_substitutions(self, text):
        expected = _PHONE_RE.sub("[phone removed]", _EMAIL_RE.sub("[email removed]", text))
        assert scrub_pii(text) == expected


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        parsed = parse_vacancies(lines(record("A")))
        vacancy = parsed.vacancies[0]
        again = Vacancy.from_record(json.loads(json.dumps(vacancy.to_record())))
        assert again == vacancy

    @given(
        summary=st.text(max_size=80),
        description=st.text(min_size=1, max_size=80).filter(str.strip),
        grade_raw=st.sampled_from(["EO", "grade 7", "nonsense", ""]),
    )
    def test_round_trip_property(self, summary, description, grade_raw):
        parsed = parse_vacancies(
            lines(record(job_summary=summary, job_description=description, grade_raw=grade_raw))
        )
        for vacancy in parsed.vacancies:
            assert Vacancy.from_record(vacancy.to_record()) == vacancy


class TestVocabulary:
    def vocab(self, tmp_path):
        from taskshift.corpus import load_vocabulary

        path = tmp_path / "vocab.json"
        path.write_text(
            json.dumps({"departments": ["HO", "HMRC"], "professions": ["Policy", "Other"]})
        )
        return load_vocabulary(path)

    def test_unknown_department_skipped(self, tmp_path):
        vocab = self.vocab(tmp_path)
        parsed = parse_vacancies(
            lines(record("A", department="HO"), record("B", department="XX")),
            vocab=vocab,
        )
        assert [v.vacancy_id for v in parsed.vacancies] == ["A"]
        assert "vocabulary" in parsed.issues[0].reason

    def test_unknown_profession_becomes_other(self, tmp_path):
        vocab = self.vocab(tmp_path)
        parsed = parse_vacancies(lines(record(profession="Astrology")), vocab=vocab)
        assert parsed.vacancies[0].profession == "Other"

    def test_reference_table_department_violation_fatal(self, tmp_path, data_dir):
        vocab = self.vocab(tmp_path)
        with pytest.raises(DataError, match="vocabulary"):
            load_reference_tables(
                data_dir / "fte.csv",  # includes CO, absent from this vocabulary
                data_dir / "salary.csv",
                data_dir / "grade_totals.csv",
                data_dir / "profession_totals.csv",
                vocab=vocab,
            )

    def test_missing_vocab_file_fatal(self, tmp_path):
        from taskshift.corpus import load_vocabulary

        with pytest.raises(DataError):
            load_vocabulary(tmp_path / "absent.json")


class TestMapGrade:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Senior Executive Officer", GradeBucket.HEO_SEO),
            ("", GradeBucket.UNMAPPED),
            ("grade 7", GradeBucket.G6_G7),
            ("  GRADE 7 ", GradeBucket.G6_G7),
            ("Higher Executive Officer (HEO)", GradeBucket.HEO_SEO),
            ("Administrative Officer", GradeBucket.AA_AO),
            ("SCS1", GradeBucket.SCS),
            ("Band 5", GradeBucket.UNMAPPED),
            ("Executive Officer", GradeBucket.EO),
        ],
    )
    def test_examples(self, raw, expected):
        assert map_grade(raw) is expected

    def test_idempotent_on_bucket_names(self):
        for bucket in GradeBucket:
            assert map_grade(bucket.value) is bucket

    def test_case_and_whitespace_insensitive(self):
        assert normalize_grade_text(" Grade-7 ") == normalize_grade_text("grade 7")
        assert map_grade("senior   executive   officer") is GradeBucket.HEO_SEO


class TestReferenceTables:
    @pytest.fixture
    def ref(self, data_dir):
        return load_reference_tables(
            data_dir / "fte.csv",
            data_dir / "salary.csv",
            data_dir / "grade_totals.csv",
            data_dir / "profession_totals.csv",
        )

    def test_population_total_defaults_to_grade_sum(self, ref):
        assert ref.population_total == 44000.0

    def test_suppressed_cell_is_none_not_zero(self, ref):
        assert ref.median_salary[("HMRC", "AA/AO")] is None
        assert ref.fte[("CO", "SCS")] is None

    def test_department_fte_treats_suppressed_as_zero_mass(self, ref):
        totals = department_fte(ref)
        assert totals["CO"] == 800 + 1200 + 1500 + 900

    def test_join_salary_direct_lookup(self, ref):
        vacancy = Vacancy.from_record(record(department="HO", grade_raw="EO") | {"grade": "EO"})
        assert join_salary(vacancy, ref) == 28000.0

    def test_join_salary_suppressed_is_absent(self, ref):
        vacancy = Vacancy.from_record(
            record(department="HMRC", grade_raw="AO") | {"grade": "AA/AO"}
        )
        assert join_salary(vacancy, ref) is None

    def test_join_salary_missing_department_absent_with_diagnostic(self, ref, caplog):
        vacancy = Vacancy.from_record(record(department="XX") | {"grade": "EO"})
        with caplog.at_level(logging.INFO, logger="taskshift.corpus"):
            assert join_salary(vacancy, ref) is None
        assert any("no salary row" in message for message in caplog.messages)

    def test_join_salary_unmapped_grade_absent(self, ref):
        vacancy = Vacancy.from_record(record(grade_raw="Band 9") | {"grade": "Unmapped"})
        assert join_salary(vacancy, ref) is None

    def test_unknown_grade_bucket_in_csv_rejected(self, tmp_path, data_dir):
        bad = tmp_path / "fte.csv"
        bad.write_text("department,grade,fte\nHO,Band 4,12\n")
        with pytest.raises(DataError, match="unknown grade bucket"):
            load_reference_tables(
                bad,
                data_dir / "salary.csv",
                data_dir / "grade_totals.csv",
                data_dir / "profession_totals.csv",
            )

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("name", ["salary.csv", "grade_totals.csv"])
    def test_non_finite_cell_rejected_with_its_line(self, tmp_path, data_dir, name, token):
        text = {
            "salary.csv": "department,grade,median_salary\nHO,EO,28000\nHO,HEO/SEO,{}\n",
            "grade_totals.csv": "grade,fte\nEO,100\nHEO/SEO,{}\n",
        }[name]
        paths = {
            table: data_dir / table
            for table in ("fte.csv", "salary.csv", "grade_totals.csv", "profession_totals.csv")
        }
        paths[name] = tmp_path / name
        paths[name].write_text(text.format(token))
        with pytest.raises(DataError, match=rf"{name}:3: non-finite value '{token}'"):
            load_reference_tables(*paths.values())

    def test_negative_cell_rejected(self, tmp_path, data_dir):
        bad = tmp_path / "fte.csv"
        bad.write_text("department,grade,fte\nHO,EO,-5\n")
        with pytest.raises(DataError, match="negative"):
            load_reference_tables(
                bad,
                data_dir / "salary.csv",
                data_dir / "grade_totals.csv",
                data_dir / "profession_totals.csv",
            )
