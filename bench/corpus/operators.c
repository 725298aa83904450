int a;
int b = 3;
int c = -2;

int main() {
    int r;
    r = a + b * c - 4 / 2 % 3;
    r = a < b;
    r = a <= b;
    r = a > b;
    r = a >= b;
    r = a == b;
    r = a != b;
    r = !a && b || c;
    r = -a;
    a += 2;
    b = a = 7;
    return r;
}
